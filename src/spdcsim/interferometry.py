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
# entries per batch of libm calls in _libm
_LIBM_CHUNK = 4096


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
    only the other entries call fn, _LIBM_CHUNK at a time, so that one
    chunk's Python floats are held at once.  A 0-d x always calls fn: the
    visibility sweeps make ~600 scalar calls per pass, and a mask doubled
    their time.
    """
    if np.ndim(x) == 0:
        return np.asarray(fn(x), dtype=float)
    mask, out = known()
    live = ~mask
    values = x[live]
    for lo in range(0, values.size, _LIBM_CHUNK):
        chunk = values[lo:lo + _LIBM_CHUNK]
        chunk[:] = np.fromiter(map(fn, chunk.tolist()), float, chunk.size)
    out[live] = values
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
    f2 = 0.5 * (1.0 - r) * _exp(q_decay) - (_SQRT_PI * xi / 4.0) * _erf((1.0 - r) / xi)
    return f1, f2


def mz_rate_closed(cfp: ClosedFormParams, tau: np.ndarray | float) -> np.ndarray:
    """Normalized fringe-arrangement rate 1 + cos(w_p tau) F1(tau) + F2(tau)
    at delays tau (an array or a scalar), shaped like tau.

    At xi = inf this is exactly 1 + exp(-bw^2 tau^2 / 4) cos(w_p tau).
    """
    f1, f2 = fringe_envelope_terms(cfp, tau)
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
# onto one tau-independent line spectrum, 1 + sum_i w_i cos(f_i tau): the
# dip's lines form one comb, at the v nodes, and the fringe's two, at the v
# nodes and at the u nodes shifted by w_p.  Each comb is equally spaced, so
# one chirp-z transform sums it over a uniform delay grid (_cos_sums).  The
# constant Jacobian cancels in the normalization.
#
# Because phi is even, p2(u, v) = p1(-u, v) and p1(-u, -v) = p1(u, v).  Both
# node axes are built as exact mirror images of their positive halves (the
# midpoint rule has no node at 0), so the build evaluates one kernel block
# p1 over v > 0 only, reads p2 as its row reversal and folds the v < 0 half
# analytically.  Signal-idler exchange (u -> -u) keeps plus = p1 + p2 and
# negates minus = p1 - p2, so their squares' sums take half the u rows; the
# line weights are even in v, so each delay sums cos(v tau) over v > 0 with
# doubled weights.  The kernel is phi_L(x, L) / L = sin(y) / y with
# y = x L / 2: the L^2 cancels in the normalization, and no closed form enters.

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
# v_half), so a reach of 3000 / tau_theta keeps truncation near 2e-4
_V_REACH = 3000.0
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
                  budget: int) -> dict[TraceKind, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """{kind: combs} for one (crystal, pump) setting, one (freq, weights)
    comb per node axis, freq ascending and equally spaced: the trace of that
    kind at a delay tau is 1 + the combs' sums of weights[i] cos(freq[i] tau)."""
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
    v_half = _V_REACH / tau_theta + 5.0 * bw * abs(a) / abs(b)
    # band limits along u and v, docs/DERIVATION.md (4.1)-(4.2)
    step_u = 2.0 * math.pi / (s * (abs(a) * L + tau_max + 12.0 / bw))
    step_v = 2.0 * math.pi / (s * (abs(b) * L + tau_max))
    un, uw = midpoint_rule(pump.reach, step_u, budget, f"u axis ({grade} build)")
    vn, vw = midpoint_rule(2.0 * v_half, step_v, budget, f"v axis ({grade} build)")
    half = len(vn) // 2
    vp, vwp = vn[half:], vw[half:] * _roll_off(vn[half:], v_half)
    wu = np.exp(-((un / bw) ** 2)) * uw
    # sin(y) / y is even in y, so flipping both signs when b < 0 keeps
    # p1 and leaves bv ascending, as _sinc_blocks needs
    au = (math.copysign(0.5, b) * a * L) * un
    bv = (0.5 * abs(b) * L) * vp
    h = len(un) // 2  # row h + k is row h - 1 - k mirrored, and wu is even
    t_u = np.zeros(h)              # sum over v > 0 of plus^2
    vsum = np.empty((2, len(vp)))  # pump-weighted sums over u < h of plus^2, minus^2
    chunk = max(_MIN_COLUMNS, _BLOCK_BYTES // (8 * len(un)))
    for lo, p1, spare in _sinc_blocks(au, bv, chunk):
        hi = lo + p1.shape[1]
        minus = np.subtract(p1[:h], p1[::-1][:h], out=spare[:h])
        plus = np.add(p1[:h], p1[::-1][:h], out=p1[:h])
        minus *= minus
        plus *= plus
        t_u += plus @ vwp[lo:hi]
        vsum[:, lo:hi] = wu[:h] @ plus, wu[:h] @ minus
    # per v line, half the plane's sums of plus^2 and minus^2: the mass sums p1^2 + p2^2
    P, M = 2.0 * vwp * vsum
    mass = float(np.sum(P + M))
    return {
        TraceKind.HOM: ((vp, (M - P) / mass),),
        TraceKind.MZ: ((un + pump.omega_p, wu * np.concatenate((t_u, t_u[::-1])) / mass),
                       (vp, M / mass)),
    }


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


def _chirp(r: float, x: np.ndarray) -> np.ndarray:
    """e^{2 pi i r x^2} for integers x held as floats, x^2 < 2^53, with r x^2
    reduced mod 1 exactly: docs/DERIVATION.md (4.6)."""
    xx = x * x
    bits = 53 - int(np.max(xx)).bit_length()
    mantissa, exponent = math.frexp(r)
    # r's head keeps `bits` bits, so head * x^2 is exact; its tail's products are small
    head = math.ldexp(round(math.ldexp(mantissa, bits)), exponent - bits)
    return np.exp(2j * math.pi * (np.mod(head * xx, 1.0) + (r - head) * xx))


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
    y = 2.0 * np.arange(n) - (n - 1)
    spectrum = np.fft.fft(weights * np.exp(1j * freq * tau_c) * _chirp(r, 2.0 * np.arange(m)),
                          size)
    kernel = _chirp(r, 2.0 * np.r_[:n, n - size:0] - (n - 1))
    spectrum *= np.fft.fft(np.conj(kernel, out=kernel))
    sums = np.fft.ifft(spectrum)[:n]
    return (np.exp(0.5j * freq[0] * d * y) * _chirp(r, y) * sums).real


@functools.lru_cache(maxsize=8)
def _spectra_pair(params: PhaseMatchParams, pump: PumpSpectrum, tau_max: float,
                  budget: int) -> tuple[dict, dict]:
    """The fine and coarse line spectra of one setting, built once and
    reused by every later trace of either kind on the same inputs."""
    return tuple(_line_spectra(params, pump, tau_max, grade, budget) for grade in OVERSAMPLING)


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
    values, coarse = (1.0 + sum(_cos_sums(freq, weights, flat) for freq, weights in spectra[kind])
                      for spectra in _spectra_pair(params, pump, reach, spec.max_subdivisions))
    drift = float(np.max(np.abs(values - coarse), initial=0.0))
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
