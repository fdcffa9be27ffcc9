"""Normalized coincidence rates for the two interferometer arrangements,
computed two independent ways: closed form and brute-force quadrature of
the underlying double integral.  Also the visibility figures of merit and
the parameter sweeps behind the visibility curves.

Normalization convention: the raw double-sided rate integral is divided by
its asymptotic large-delay baseline (the cross term averages out), so dip
traces approach 1 and fringe traces average to 1 far from zero delay.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
# a module binding, not math.erf at each call: perfbench patches it to count calls
from math import erf

import numpy as np

from .biphoton import PumpSpectrum
from .dispersion import PhaseMatchParams
from .numerics import NonConvergence, QuadratureSpec, midpoint_rule

__all__ = [
    "TraceKind",
    "ClosedFormParams",
    "closed_form_params",
    "hom_rate_closed",
    "mz_rate_closed",
    "fringe_envelope_terms",
    "hom_trace_integral",
    "mz_trace_integral",
    "v_hom",
    "v_mz",
    "sweep_visibility",
    "delay_span",
]

_SQRT_PI = math.sqrt(math.pi)

# Self-check tolerance and node budget of the quadrature traces
TRACE_SPEC = QuadratureSpec()
# oversampling s of the fine and coarse builds' steps, docs/DERIVATION.md (4.4)
OVERSAMPLING = {"fine": 1.3, "coarse": 1.15}
# xi past which the closed forms take their xi -> inf limits, docs/DERIVATION.md
# (2.2)-(2.4): the limits are off by at most 0.34 / xi^2, while the F1 bracket,
# whose two erf terms cancel, carries about 3.5e-17 xi; both are ~1e-11 here
_XI_LIMIT = 2e5
# libm facts, not math ones (glibc 2.36; tests/test_interferometry.py checks
# them): math.erf(x) is exactly +-1.0 for |x| >= _ERF_SATURATED (the first
# exact 1.0 is at 5.9216), and math.exp(-t) is exactly 0.0 for
# t >= _EXP_UNDERFLOWED (from t = 745.14)
_ERF_SATURATED = 6.0
_EXP_UNDERFLOWED = 746.0
# delays per chunk of the closed forms' array path, and so the most entries
# of one batch of libm calls: each chunk's ~12 float64 temporaries take
# 32 KiB apiece and its Python floats ~128 KiB, in place of ~12 arrays as
# long as the whole delay array.  mz_rate_closed plus hom_rate_closed on
# the 60,751 delays of the CLI's fringe grid at (-pi/6, 2e4) took a median
# 13.2 ms at 2^12, 12.8 at 2^13, 13.1 at 2^14 and 14.9 as one chunk, with a
# traced peak of 1.0, 1.5, 2.6 and 6.0 MiB (2-core Xeon, numpy 2.4.6).  At
# 2^13 the default 7975-delay fringe trace is one chunk, whose 7975 Python
# floats at once left a fringe_scan pass's peak RSS ~0.5 MiB above that at
# 2^12, where the trace is two chunks
_DELAY_CHUNK = 1 << 12


class TraceKind(Enum):
    HOM = "hom"
    MZ = "mz"


@dataclass(frozen=True)
class ClosedFormParams:
    """Every constant the closed forms read for one (crystal, pump) setting.

    xi = 4 / (pump_bw * gamma * L * |cos theta + sin theta|), taken as +inf
    past _XI_LIMIT (next to the gamma_s = -gamma_i ray), where the closed
    forms switch to their analytic limits; docs/DERIVATION.md (2.4).
    tau_theta = gamma * L * |cos theta - sin theta| / 2.
    q2 = ((gamma_s + gamma_i) / (gamma_s - gamma_i))^2, 0 when tau_theta = 0.
    """

    xi: float
    tau_theta: float
    q2: float
    bandwidth: float  # pump, rad/ps
    omega_p: float    # pump, rad/ps


def closed_form_params(params: PhaseMatchParams, pump: PumpSpectrum) -> ClosedFormParams:
    c, s = math.cos(params.theta), math.sin(params.theta)
    gl = params.gamma * params.length
    plus = abs(c + s)
    width = pump.bandwidth * gl * plus
    if not math.isfinite(width) or (width == 0.0 and plus >= 1e-12):
        raise ValueError(f"pump bandwidth * gamma * length * |cos theta + sin theta| = {width}; "
                         "it must be finite, and > 0 off the gamma_s = -gamma_i ray")
    xi = math.inf if width < 4.0 / _XI_LIMIT else 4.0 / width
    # snap the gamma_s = gamma_i ray to an exact zero width
    tau_theta = 0.0 if params.gammas_equal else 0.5 * gl * abs(c - s)
    q2 = 0.0 if tau_theta == 0.0 else (
        (params.gamma_s + params.gamma_i) / (params.gamma_s - params.gamma_i)) ** 2
    return ClosedFormParams(xi, tau_theta, q2, pump.bandwidth, pump.omega_p)


def _libm(fn, x, known):
    """fn per element of x, through the math library: numpy has no erf, and
    its SIMD exp can differ from math.exp in the last bit.

    known() returns (mask, out) for an array x: the entries whose result is
    already known bit for bit, and an array like x holding those results;
    only the other entries call fn.  The closed forms pass at most
    _DELAY_CHUNK entries, so that one chunk's Python floats are held at
    once.  A 0-d x always calls fn: the visibility sweeps make ~600 scalar
    calls per pass, and a mask doubled their time.
    """
    if np.ndim(x) == 0:
        return np.asarray(fn(x), dtype=float)
    mask, out = known()
    live = ~mask
    values = x[live]
    out[live] = np.fromiter(map(fn, values.tolist()), float, values.size)
    return out


def _erf(x):
    """erf per element of x through the module binding `erf`, which is
    called only where 0 < |x| < _ERF_SATURATED: elsewhere erf(x) is exactly
    +-1 or +-0 with the sign of x."""
    def known():
        saturated = np.abs(x) >= _ERF_SATURATED
        return saturated | (x == 0.0), np.copysign(saturated, x)
    return _libm(erf, x, known)


def _exp(t):
    """math.exp per element of t, called only where t > -_EXP_UNDERFLOWED:
    elsewhere it is exactly 0.0."""
    return _libm(math.exp, t, lambda: (t <= -_EXP_UNDERFLOWED, np.zeros_like(t)))


def _require_finite(tau: np.ndarray | float, what: str) -> None:
    """Raises ValueError naming the values of tau that are not finite."""
    bad = np.asarray(tau)[~np.isfinite(tau)]
    if bad.size:
        raise ValueError(f"{what} must be finite, got "
                         + ", ".join(map(str, np.unique(bad).tolist())))


def _by_chunks(fn, tau, outputs: int = 1):
    """fn(tau), for a scalar or an array of at most _DELAY_CHUNK delays.
    For a longer array, fn on each run of _DELAY_CHUNK delays of tau's flat
    view, its `outputs` results written into float arrays shaped like tau
    and allocated once, so that one chunk's temporaries are live at a time:
    those arrays, a tuple of them when outputs > 1.  fn works element by
    element, so the bytes do not depend on the chunks."""
    if np.size(tau) <= _DELAY_CHUNK:
        return fn(tau)
    tau = np.asarray(tau)
    outs = tuple(np.empty(tau.shape) for _ in range(outputs))
    flat = tau.reshape(-1)
    for lo in range(0, flat.size, _DELAY_CHUNK):
        parts = fn(flat[lo:lo + _DELAY_CHUNK])
        for out, part in zip(outs, parts if outputs > 1 else (parts,)):
            out.reshape(-1)[lo:lo + _DELAY_CHUNK] = part
    return outs if outputs > 1 else outs[0]


def hom_rate_closed(cfp: ClosedFormParams, tau: np.ndarray | float) -> np.ndarray:
    """Normalized two-detector rate of the dip arrangement at delays tau
    (an array or a scalar), shaped like tau.

    1 - (sqrt(pi)/2) xi erf((1 - r) / xi) with r = |tau| / tau_theta
    clipped at 1, where erf(0) = 0 gives exactly 1; it degenerates to the
    triangle r in the xi -> inf limit.

    Raises:
        ValueError: a delay is not finite, or tau_theta = 0 (rate identically 1).
    """
    _require_finite(tau, "closed-form delays tau")
    if cfp.tau_theta <= 0:
        raise ValueError("tau_theta = 0: dip has zero width")
    return _by_chunks(functools.partial(_hom_rate, cfp), tau)


def _hom_rate(cfp: ClosedFormParams, tau):
    r = np.minimum(np.abs(tau), cfp.tau_theta) / cfp.tau_theta
    if math.isinf(cfp.xi):
        return r
    return 1.0 - 0.5 * _SQRT_PI * cfp.xi * _erf((1.0 - r) / cfp.xi)


def fringe_envelope_terms(cfp: ClosedFormParams,
                          tau: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Fringe envelope F1 and slow residue F2 of the fringe-trace closed form
    at delays tau (an array or a scalar), each shaped like tau.

    F1(tau) = exp(-(bw tau/2)^2)/2
              + (sqrt(pi) xi / 8) [erf(1/xi - bw tau/2) + erf(1/xi + bw tau/2)]
    F2(tau) = (1 - r) exp(-(bw tau/2)^2 q^2) / 2 - (sqrt(pi) xi / 4) erf((1 - r) / xi)
    with r = |tau|/tau_theta clipped at 1, so F2 = 0 outside |tau| < tau_theta
    (at tau_theta = 0, everywhere but tau = 0), and q^2 = cfp.q2 the squared
    ratio of the sum and difference projections of the group-delay
    coefficients.  At xi = inf, F1 is exactly the Gaussian envelope and F2
    vanishes identically.

    Pinned by two exact anchors, F1(0) + F2(0) = 1 and the xi -> inf
    Gaussian reduction, and cross-validated against brute-force quadrature
    of the raw double integral (see mz_trace_integral).

    Raises:
        ValueError: a delay is not finite.
    """
    _require_finite(tau, "closed-form delays tau")
    return _by_chunks(functools.partial(_fringe_terms, cfp), tau, outputs=2)


def _fringe_terms(cfp: ClosedFormParams, tau):
    # far out x * x overflows, and exp(-inf) = 0 is exact; the cap at the largest
    # float keeps q2 = 0 (gamma_s = gamma_i) from making exp(-inf * 0) = nan
    with np.errstate(over="ignore"):
        x = 0.5 * cfp.bandwidth * tau
        xx = np.minimum(x * x, np.finfo(float).max)
        q_decay = -xx * cfp.q2
    gauss = _exp(-xx)
    if math.isinf(cfp.xi):
        return gauss, np.zeros_like(gauss)
    xi = cfp.xi
    f1 = 0.5 * gauss + (_SQRT_PI * xi / 8.0) * (_erf(1.0 / xi - x) + _erf(1.0 / xi + x))
    if cfp.tau_theta > 0:
        r = np.minimum(np.abs(tau), cfp.tau_theta) / cfp.tau_theta
    else:
        r = np.where(tau == 0.0, 0.0, 1.0)
    # at r = 1 the factor 1 - r is +0.0 and exp(q_decay) <= 1, so the term is
    # 0.0 either way: exp(-inf) is filled in as 0.0 without calling libm
    decay = _exp(np.where(r < 1.0, q_decay, -np.inf))
    f2 = 0.5 * (1.0 - r) * decay - (_SQRT_PI * xi / 4.0) * _erf((1.0 - r) / xi)
    return f1, f2


def mz_rate_closed(cfp: ClosedFormParams, tau: np.ndarray | float) -> np.ndarray:
    """Normalized fringe-arrangement rate 1 + cos(w_p tau) F1(tau) + F2(tau)
    at delays tau (an array or a scalar), shaped like tau.

    At xi = inf this is exactly 1 + exp(-bw^2 tau^2 / 4) cos(w_p tau).
    """
    _require_finite(tau, "closed-form delays tau")
    return _by_chunks(functools.partial(_mz_rate, cfp), tau)


def _mz_rate(cfp: ClosedFormParams, tau):
    f1, f2 = _fringe_terms(cfp, tau)
    phase = cfp.omega_p * tau
    # where F1 = +-0.0, 1 + cos * F1 is exactly 1 whatever the cosine is, so
    # math.cos is called only where F1 != 0, and on an infinite phase, where
    # it raises
    cos = _libm(math.cos, phase, lambda: ((f1 == 0.0) & np.isfinite(phase), np.zeros_like(f1)))
    return 1.0 + cos * f1 + f2


def v_hom(cfp: ClosedFormParams) -> float:
    """Dip visibility (1 - P(0)) / (1 + P(0)) of the closed dip trace P;
    exactly 1 at xi = inf.

    Raises:
        ValueError: tau_theta = 0.
    """
    p = float(hom_rate_closed(cfp, 0.0))
    return (1.0 - p) / (1.0 + p)


def v_mz(cfp: ClosedFormParams) -> float:
    """Fringe visibility (2 - P) / (2 + P) from the closed fringe trace P at
    half a fringe period, pi / w_p, where P(0) = 2.

    Raises:
        ValueError: pi / w_p is not finite (a subnormal w_p).
    """
    half_period = math.pi / cfp.omega_p
    if not math.isfinite(half_period):
        raise ValueError(f"omega_p = {cfp.omega_p} gives half a fringe period pi / omega_p "
                         "that is not finite")
    p = float(mz_rate_closed(cfp, half_period))
    return (2.0 - p) / (2.0 + p)


# ---------------------------------------------------------------------------
# Quadrature route: brute-force evaluation of the raw rate integrals
# ---------------------------------------------------------------------------
#
# Both raw integrals run over the signal/idler detunings.  In rotated
# coordinates u = d1 + d2 (sum) and v = d1 - d2 (difference) the pump weight
# W(u) = exp(-u^2 / bw^2) bounds u, the phase-matching factors become
# p1(u, v) = phi(a u + b v) and p2(u, v) = phi(a u - b v) with a, b the half
# sum/difference of the group-delay coefficients, and every delay-dependent
# factor reduces to cos(v tau), cos((u + w_p) tau) or
# cos((u + w_p) tau / 2) cos(v tau / 2).  The last family is odd in v and
# integrates to zero; the rest separate, so each normalized trace collapses
# onto one tau-independent line spectrum, 1 + sum_i w_i cos(f_i tau),
# docs/DERIVATION.md (4.9): the dip's lines form one comb, at the v nodes,
# and the fringe's two, at the v nodes and at the u nodes shifted by w_p.
# Each comb is equally spaced, so one chirp-z transform sums it over a
# uniform delay grid (_cos_sums).  The constant Jacobian cancels in the
# normalization.
#
# Because phi is even, p2(u, v) = p1(-u, v) and p1(-u, -v) = p1(u, v),
# (4.7).  Both node axes are built as exact mirror images of their positive
# halves (the midpoint rule has no node at 0), so the build evaluates one
# kernel block p1 over v > 0 only, reads p2 as its row reversal and folds
# the v < 0 half analytically.  Signal-idler exchange (u -> -u) keeps
# plus = p1 + p2 and negates minus = p1 - p2, so their squares' sums take
# half the u rows, (4.8); the line weights are even in v, so each delay
# sums cos(v tau) over v > 0 with doubled weights.  Over the whole v line,
# Parseval's (4.10) fixes the sums of plus^2, and so the fringe's u lines.
# The kernel is phi_L(x, L) / L = sin(y) / y with y = x L / 2: the L^2
# cancels in the normalization, and no closed form enters.

# bytes of one float64 kernel block in the build loop, which holds two at
# once (y and p1, which the products overwrite), and of the phases of one
# node chunk in _cos_sums' direct sum.  512 KiB keeps the two blocks within
# a 2 MiB L2 cache: the six validate builds took a median 22.5 ms at 512 KiB,
# 23.9 at 1 MiB, 25.2 at 256 KiB and 44.1 at 4 MiB (2-core Xeon, CHANGES.md)
_BLOCK_BYTES = 512 << 10
# fewest v columns per kernel block, whatever the u axis's length: below
# that, the per-block calls outweigh the cache the block fits in
_MIN_COLUMNS = 64
# difference-axis reach in units of 1 / tau_theta: the squared sinc tails
# thin out as 1/v^2, leaving a relative baseline deficit ~2/(pi tau_theta
# v_half) of the whole line's (4.10), so a reach of 3000 / tau_theta keeps
# truncation near 2e-4
_V_REACH = 3000.0
# the self-check's reach in the same units: the midpoint rule's step error
# is set by the integrand's band, not by how far the v axis runs
# (docs/DERIVATION.md (4.4)), so the coarse build runs to an eighth of the
# reach, and the fine build sums its blocks there too
_V_CHECK = _V_REACH / 8.0
# |y| from which the kernel divides the angle-added sin(y), whose absolute
# error is a few ulp of 1, by y: the quotient is then off by a few ulp at most
_RIDGE = 1.0


def _sinc_blocks(au: np.ndarray, bv: np.ndarray, chunk: int):
    """Yield (lo, p1, spare) for each chunk of up to `chunk` columns of
    p1[i, j] = sin(y) / y, y = au[i] + bv[lo + j], 1 at y = 0, over the
    ascending axis bv.  p1 and spare are (len(au), columns) views of two
    buffers that the next chunk reuses; the caller may overwrite both.

    sin(y) = sin(au) cos(bv) + cos(au) sin(bv) is one (len(au) x 2) @
    (2 x columns) matrix product, so the build takes len(au) + len(bv)
    sines and cosines instead of one sine per node pair; y = au 1 + 1 bv, a
    second such product, is bitwise au + bv (exact products, one rounding).
    Within _RIDGE of the ridge y = 0 the sine's rounding would grow by
    1 / |y|, so there p1 is sin(y) / y evaluated directly.
    """
    rows = np.stack((np.sin(au), np.cos(au), au, np.ones_like(au)), axis=1)
    cols = np.stack((np.cos(bv), np.sin(bv), np.ones_like(bv), bv), axis=1)
    # the (i, j) with |y| < _RIDGE: each row's is one range of the sorted bv
    first = np.searchsorted(bv, -au - _RIDGE, side="right")
    count = np.searchsorted(bv, -au + _RIDGE, side="left") - first
    ridge_i = np.repeat(np.arange(len(au)), count)
    ridge_j = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    # sorted by column once, so each chunk's cells are one slice
    by_column = np.argsort(ridge_j, kind="stable")
    ridge_i, ridge_j = ridge_i[by_column], ridge_j[by_column]
    cells = len(au) * min(chunk, len(bv))
    y_buf, p_buf = np.empty(cells), np.empty(cells)
    for lo in range(0, len(bv), chunk):
        hi = min(lo + chunk, len(bv))
        shape, size = (len(au), hi - lo), len(au) * (hi - lo)
        y = np.matmul(rows[:, 2:], cols[lo:hi, 2:].T, out=y_buf[:size].reshape(shape))
        p1 = np.matmul(rows[:, :2], cols[lo:hi, :2].T, out=p_buf[:size].reshape(shape))
        start, stop = np.searchsorted(ridge_j, (lo, hi))
        i, j = ridge_i[start:stop], ridge_j[start:stop] - lo
        y_ridge = y[i, j]
        y[i, j] = 1.0  # keeps y = 0 out of the division; these entries are replaced
        p1 /= y
        p1[i, j] = np.divide(np.sin(y_ridge), y_ridge, out=np.ones_like(y_ridge),
                             where=y_ridge != 0.0)
        yield lo, p1, y


def _roll_off(v: np.ndarray, v_half: float) -> np.ndarray:
    """The v weights' factor that ends the difference axis smoothly from
    v_half to 2 v_half, docs/DERIVATION.md (4.5)."""
    return 0.5 * (1.0 + np.cos(math.pi * np.clip(np.abs(v) / v_half - 1.0, 0.0, 1.0)))


def _line_spectra(params: PhaseMatchParams, pump: PumpSpectrum, tau_max: float, grade: str,
                  budget: int, reaches: tuple[float, ...] = (_V_REACH,)
                  ) -> tuple[dict[TraceKind, tuple[tuple[np.ndarray, np.ndarray], ...]], ...]:
    """One {kind: combs} for one (crystal, pump) setting per difference-axis
    reach in `reaches` (in units of 1 / tau_theta, the largest first), one
    (freq, weights) comb per node axis, freq ascending and equally spaced:
    the trace of that kind at a delay tau is 1 + the combs' sums of
    weights[i] cos(freq[i] tau).  The v axis runs as far as the first reach
    asks; every reach sums the same kernel blocks, under its own roll-off
    (docs/DERIVATION.md (4.5)), and its v lines end at the last one below
    its 2 v_half."""
    gs, gi = params.gamma_s, params.gamma_i
    a = 0.5 * (gs + gi)
    b = 0.5 * (gs - gi)
    L = params.length
    tau_theta = abs(b) * L
    # the dip has zero width on the ray, and where |b| L underflows to 0
    if params.gammas_equal or tau_theta == 0.0:
        what = ("gamma_s = gamma_i: the quadrature route does not cover this ray"
                if params.gammas_equal else "tau_theta = |gamma_s - gamma_i| L / 2 = 0: "
                "the quadrature route does not cover a dip of zero width")
        raise ValueError(f"{what}; --method closed does for the fringe trace")
    bw = pump.bandwidth
    s = OVERSAMPLING[grade]
    # the a*u/b term tracks the phase-matching ridge across the
    # pump-limited u range
    v_halfs = [reach / tau_theta + 5.0 * bw * abs(a) / abs(b) for reach in reaches]
    # band limits along u and v, docs/DERIVATION.md (4.1)-(4.2)
    step_u = 2.0 * math.pi / (s * (abs(a) * L + tau_max + 12.0 / bw))
    step_v = 2.0 * math.pi / (s * (abs(b) * L + tau_max))
    un, uw = midpoint_rule(pump.reach, step_u, budget, f"u axis ({grade} build)")
    vn, vw = midpoint_rule(2.0 * v_halfs[0], step_v, budget, f"v axis ({grade} build)")
    half = len(vn) // 2
    vp = vn[half:]
    vwps = [vw[half:] * _roll_off(vp, v_half) for v_half in v_halfs]
    # each reach's lines: the v nodes below its 2 v_half, past which its weights are 0
    cuts = [int(np.searchsorted(vp, 2.0 * v_half)) for v_half in v_halfs]
    wu = np.exp(-((un / bw) ** 2)) * uw
    # sin(y) / y is even in y, so flipping both signs when b < 0 keeps
    # p1 and leaves bv ascending, as _sinc_blocks needs
    au = (math.copysign(0.5, b) * a * L) * un
    bv = (0.5 * abs(b) * L) * vp
    h = len(un) // 2  # row h + k is row h - 1 - k mirrored, and wu is even
    t_u = np.zeros((len(reaches), h))  # per reach, sums over v > 0 of plus^2
    vsum = np.empty((2, len(vp)))  # pump-weighted sums over u < h of plus^2, minus^2
    chunk = max(_MIN_COLUMNS, _BLOCK_BYTES // (8 * len(un)))
    for lo, p1, spare in _sinc_blocks(au, bv, chunk):
        hi = lo + p1.shape[1]
        minus = np.subtract(p1[:h], p1[::-1][:h], out=spare[:h])
        plus = np.add(p1[:h], p1[::-1][:h], out=p1[:h])
        minus *= minus
        plus *= plus
        for t, vwp, cut in zip(t_u, vwps, cuts):
            if lo < cut:
                t += plus @ vwp[lo:hi]
        vsum[:, lo:hi] = wu[:h] @ plus, wu[:h] @ minus
    spectra = []
    for t, vwp, cut in zip(t_u, vwps, cuts):
        # per v line, half the plane's sums of plus^2 and minus^2: the mass sums p1^2 + p2^2
        P, M = 2.0 * vwp[:cut] * vsum[:, :cut]
        mass = float(np.sum(P + M))
        spectra.append({
            TraceKind.HOM: ((vp[:cut], (M - P) / mass),),
            TraceKind.MZ: ((un + pump.omega_p, wu * np.concatenate((t, t[::-1])) / mass),
                           (vp[:cut], M / mass)),
        })
    return tuple(spectra)


def _cos_sums(freq: np.ndarray, weights: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_i weights[i] cos(freq[i] tau) over one comb, freq equally spaced,
    for every delay tau of the 1-D array taus: one chirp-z transform
    (_chirp_z_cos_sums) on a uniform grid of n > 2 delays, each within 2 ulp
    of max |tau| of tau_0 + j d, else the direct sum, one cosine per node
    per delay, in node chunks within _BLOCK_BYTES."""
    n = len(taus)
    if n > 2:
        d = (taus[-1] - taus[0]) / (n - 1)
        gap = np.abs(taus - (taus[0] + d * np.arange(n)))
        if np.max(gap) <= 2.0 * np.spacing(np.max(np.abs(taus))):
            return _chirp_z_cos_sums(freq, weights, d, 0.5 * (taus[0] + taus[-1]), n)
    out = np.zeros(n)
    chunk = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    for lo in range(0, len(freq), chunk):
        phase = np.multiply.outer(freq[lo:lo + chunk], taus)
        out += weights[lo:lo + chunk] @ np.cos(phase, out=phase)
    return out


def _chirp_phase(r: float, x: np.ndarray) -> np.ndarray:
    """r x^2 in turns for integers x held as floats, x^2 < 2^53, with r x^2
    reduced mod 1 exactly: docs/DERIVATION.md (4.6)."""
    xx = x * x
    bits = 53 - int(np.max(xx)).bit_length()
    mantissa, exponent = math.frexp(r)
    # r's head keeps `bits` bits, so head * x^2 is exact; its tail's products are small
    head = math.ldexp(round(math.ldexp(mantissa, bits)), exponent - bits)
    turns = head * xx
    # a float less its floor is exact, and 15 times faster than np.mod
    turns -= np.floor(turns)
    turns += (r - head) * xx
    return turns


def _unit(phase: np.ndarray, size: int, scale: np.ndarray | float = 1.0) -> np.ndarray:
    """scale e^{i phase}, zero-padded to `size` points, from the cosine and
    sine of the one real phase."""
    out = np.zeros(size, complex)
    out.real[:len(phase)] = np.cos(phase) * scale
    out.imag[:len(phase)] = np.sin(phase) * scale
    return out


def _fft_length(k: int) -> int:
    """The smallest 2^a, 3 2^a or 5 2^a at or past k >= 1: under 4 k / 3,
    where the next power of 2 can be 2 k - 2; docs/DERIVATION.md (4.6)."""
    return min(c << (-(-k // c) - 1).bit_length() for c in (1, 3, 5))


def _chirp_z_cos_sums(freq: np.ndarray, weights: np.ndarray, d: float, tau_c: float,
                      n: int) -> np.ndarray:
    """sum_i weights[i] cos(freq[i] tau_j) at tau_j = tau_c + j' d,
    j' = j - (n - 1) / 2, over a comb freq[i] = freq[0] + i h: one FFT
    convolution over the lags j - i (Bluestein, IEEE Trans. Audio
    Electroacoust. 18 (1970) 451), docs/DERIVATION.md (4.6).  Every line
    shares the phase freq[0] j' d, rounded once, so the combs start at
    their lowest line."""
    m = len(freq)
    r = (freq[-1] - freq[0]) / max(m - 1, 1) * d / (16.0 * math.pi)
    size = _fft_length(m + n - 1)
    turn = 2.0 * math.pi
    spectrum = np.fft.fft(_unit(freq * tau_c + turn * _chirp_phase(r, 2.0 * np.arange(m)),
                                size, weights))
    # conj(c(y - x)) at every lag, the negative ones wrapped to the end
    spectrum *= np.fft.fft(_unit(-turn * _chirp_phase(r, 2.0 * np.r_[:n, n - size:0] - (n - 1)),
                                 size))
    sums = np.fft.ifft(spectrum)[:n]
    y = 2.0 * np.arange(n) - (n - 1)
    phase = 0.5 * freq[0] * d * y + turn * _chirp_phase(r, y)
    # the real part of e^{i phase} sums
    return np.cos(phase) * sums.real - np.sin(phase) * sums.imag


@functools.lru_cache(maxsize=8)
def _spectra_pair(params: PhaseMatchParams, pump: PumpSpectrum, tau_max: float,
                  budget: int) -> tuple[dict, dict, dict]:
    """The fine build's line spectra of one setting at the full reach and at
    the check reach, and the coarse build's at the check reach alone, built
    once and reused by every later trace of either kind on the same inputs."""
    return (*_line_spectra(params, pump, tau_max, "fine", budget, (_V_REACH, _V_CHECK)),
            *_line_spectra(params, pump, tau_max, "coarse", budget, (_V_CHECK,)))


def delay_span(params: PhaseMatchParams, pump: PumpSpectrum) -> float:
    """Half-width of a delay window covering the dip plus the pump
    envelope: 2 tau_theta + 8 / bandwidth."""
    span = 2.0 * closed_form_params(params, pump).tau_theta + 8.0 / pump.bandwidth
    if not math.isfinite(2.0 * span):
        raise ValueError(f"delay span 2 tau_theta + 8 / bandwidth = {span} gives a window "
                         "width that is not finite")
    return span


def _trace_quadrature(kind: TraceKind, params: PhaseMatchParams, pump: PumpSpectrum,
                      taus: np.ndarray, spec: QuadratureSpec,
                      tau_max: float | None) -> np.ndarray:
    taus = np.asarray(taus, dtype=float)
    _require_finite(taus, "quadrature delays taus")
    if tau_max is not None and not math.isfinite(tau_max):
        raise ValueError(f"quadrature tau_max = {tau_max} must be finite")
    reach = max(float(np.max(np.abs(taus), initial=0.0)), float(tau_max or 0.0))
    # every cosine sum goes through _cos_sums, which evaluates a uniform
    # delay grid by a chirp-z transform per comb: a delay's value then
    # depends on the grid it came with, at about 1e-13 of the summed
    # |weights|, but never on the order of the calls or on the cache
    flat = taus.ravel()
    values, check, coarse = (
        1.0 + sum(_cos_sums(freq, weights, flat) for freq, weights in spectra[kind])
        for spectra in _spectra_pair(params, pump, reach, spec.max_subdivisions))
    # the step's error is set by the band, not by the reach, so the fine
    # and coarse builds are compared at the check reach alone
    drift = float(np.max(np.abs(check - coarse), initial=0.0))
    scale = float(np.max(np.abs(values), initial=0.0))
    if drift > max(spec.abs_tol, spec.rel_tol * scale):
        raise NonConvergence(
            f"a finer quadrature step still moves the trace by {drift:.2e}"
        )
    # both raw integrands are sums of |amplitude|^2 with positive weights, so
    # a value below 0 is rounding
    return np.maximum(values, 0.0).reshape(taus.shape)


def hom_trace_integral(params: PhaseMatchParams, pump: PumpSpectrum,
                       taus: np.ndarray, spec: QuadratureSpec = TRACE_SPEC,
                       tau_max: float | None = None) -> np.ndarray:
    """Dip trace by quadrature of the raw rate integral at delays taus (an
    array or a scalar), shaped like taus and normalized to its large-delay
    baseline.  Self-checked against a build at a coarser step.

    The steps resolve the oscillations up to the larger of max |taus| and
    tau_max, so a tau_max below the delays changes nothing.  np.linspace
    delays built from their ends are summed by chirp-z transforms; a grid
    scaled afterwards may miss _cos_sums' test and be summed directly.
    """
    return _trace_quadrature(TraceKind.HOM, params, pump, taus, spec, tau_max)


def mz_trace_integral(params: PhaseMatchParams, pump: PumpSpectrum,
                      taus: np.ndarray, spec: QuadratureSpec = TRACE_SPEC,
                      tau_max: float | None = None) -> np.ndarray:
    """Fringe trace by quadrature of the raw rate integral at delays taus
    (an array or a scalar), shaped like taus and normalized so the
    fringe-averaged large-delay value is 1."""
    return _trace_quadrature(TraceKind.MZ, params, pump, taus, spec, tau_max)


def sweep_visibility(kind: TraceKind, params: PhaseMatchParams, pump: PumpSpectrum,
                     thetas, xs) -> np.ndarray:
    """Closed-form visibilities over a swept parameter, shape
    (len(thetas), len(xs)).

    Each point is the setting (params, pump) at one theta, with the pump
    bandwidth set to x for HOM or the crystal length set to x for MZ.
    """
    vs = np.empty((len(thetas), len(xs)))
    for i, theta in enumerate(thetas):
        at_theta = replace(params, theta=theta)
        for j, x in enumerate(xs):
            if kind is TraceKind.HOM:
                vs[i, j] = v_hom(closed_form_params(at_theta, replace(pump, bandwidth=float(x))))
            else:
                vs[i, j] = v_mz(closed_form_params(replace(at_theta, length=float(x)), pump))
    return vs
