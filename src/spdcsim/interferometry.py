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

import numpy as np

from .biphoton import PumpSpectrum
from .dispersion import PhaseMatchParams
from .numerics import NonConvergence, QuadratureSpec, erf

__all__ = [
    "DegenerateDip",
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

# Self-check tolerance for the panel quadrature engine (the adaptive
# kernel's defaults are meant for smooth 1-d integrands, not for these
# wide oscillatory domains).
TRACE_SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-7, max_subdivisions=2**15)


class DegenerateDip(ValueError):
    """Dip half-width is zero (gamma_s == gamma_i ray): the trace is flat."""


class TraceKind(Enum):
    HOM = "hom"
    MZ = "mz"


@dataclass(frozen=True)
class ClosedFormParams:
    """Every constant the closed forms read for one (crystal, pump) setting.

    xi = 4 / (pump_bw * gamma * L * |cos theta + sin theta|); it is exactly
    +inf on the gamma_s = -gamma_i ray, where the closed forms switch to
    their analytic limits.  tau_theta = gamma * L * |cos theta - sin theta| / 2.
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
    minus = abs(c - s)
    width = pump.bandwidth * gl * plus
    if not math.isfinite(width) or (width == 0.0 and plus >= 1e-12):
        raise ValueError(f"pump bandwidth * gamma * length * |cos theta + sin theta| = {width}; "
                         "it must be finite, and > 0 off the gamma_s = -gamma_i ray")
    xi = math.inf if plus < 1e-12 else 4.0 / width
    # snap the degenerate ray to an exact zero width, mirroring the xi branch
    tau_theta = 0.0 if minus < 1e-12 else 0.5 * gl * minus
    q2 = 0.0 if tau_theta == 0.0 else (
        (params.gamma_s + params.gamma_i) / (params.gamma_s - params.gamma_i)) ** 2
    return ClosedFormParams(xi, tau_theta, q2, pump.bandwidth, pump.omega_p)


def hom_rate_closed(cfp: ClosedFormParams, tau: float) -> float:
    """Normalized two-detector rate of the dip arrangement at delay tau.

    1 outside |tau| < tau_theta; inside, 1 - (sqrt(pi)/2) xi erf((1 - |tau|
    / tau_theta) / xi), which degenerates to the triangle |tau| / tau_theta
    in the xi -> inf limit.

    Raises:
        DegenerateDip: tau_theta = 0 (rate identically 1).
    """
    if cfp.tau_theta <= 0:
        raise DegenerateDip("tau_theta = 0: dip has zero width")
    r = abs(tau) / cfp.tau_theta
    if r >= 1.0:
        return 1.0
    if math.isinf(cfp.xi):
        return r
    return 1.0 - 0.5 * _SQRT_PI * cfp.xi * erf((1.0 - r) / cfp.xi)


def fringe_envelope_terms(cfp: ClosedFormParams, tau: float) -> tuple[float, float]:
    """Fringe envelope F1 and slow residue F2 of the fringe-trace closed form.

    F1(tau) = exp(-(bw tau/2)^2)/2
              + (sqrt(pi) xi / 8) [erf(1/xi - bw tau/2) + erf(1/xi + bw tau/2)]
    F2(tau) = (1 - |tau|/tau_theta) exp(-(bw tau/2)^2 q^2) / 2
              - (sqrt(pi) xi / 4) erf((1 - |tau|/tau_theta) / xi)
    for |tau| < tau_theta (F2 = 0 outside), with q^2 = cfp.q2 the squared
    ratio of the sum and difference projections of the group-delay
    coefficients.  At xi = inf, F1 is exactly the Gaussian envelope and F2
    vanishes identically.

    Pinned by two exact anchors, F1(0) + F2(0) = 1 and the xi -> inf
    Gaussian reduction, and cross-validated against brute-force quadrature
    of the raw double integral (see mz_trace_integral).
    """
    x = 0.5 * cfp.bandwidth * tau
    if math.isinf(cfp.xi):
        return math.exp(-x * x), 0.0
    xi = cfp.xi
    f1 = 0.5 * math.exp(-x * x) + (_SQRT_PI * xi / 8.0) * (erf(1.0 / xi - x) + erf(1.0 / xi + x))
    if cfp.tau_theta <= 0:
        f2 = 0.5 - (_SQRT_PI * xi / 4.0) * erf(1.0 / xi) if tau == 0.0 else 0.0
        return f1, f2
    r = abs(tau) / cfp.tau_theta
    if r >= 1.0:
        return f1, 0.0
    f2 = 0.5 * (1.0 - r) * math.exp(-x * x * cfp.q2) - (_SQRT_PI * xi / 4.0) * erf((1.0 - r) / xi)
    return f1, f2


def mz_rate_closed(cfp: ClosedFormParams, tau: float) -> float:
    """Normalized fringe-arrangement rate 1 + cos(w_p tau) F1(tau) + F2(tau).

    At xi = inf this is exactly 1 + exp(-bw^2 tau^2 / 4) cos(w_p tau).
    """
    f1, f2 = fringe_envelope_terms(cfp, tau)
    return 1.0 + math.cos(cfp.omega_p * tau) * f1 + f2


def v_hom(cfp: ClosedFormParams) -> float:
    """Dip visibility (depth contrast); exactly 1 on the xi = inf ray.

    Raises:
        DegenerateDip: tau_theta = 0.
    """
    if cfp.tau_theta <= 0:
        raise DegenerateDip("tau_theta = 0: no dip to grade")
    if math.isinf(cfp.xi):
        return 1.0
    g = 0.5 * _SQRT_PI * cfp.xi * erf(1.0 / cfp.xi)
    return g / (2.0 - g)


def v_mz(cfp: ClosedFormParams) -> float:
    """Fringe visibility from the rates at zero delay and half a fringe
    period: (1 + [F1 - F2]) / (3 - [F1 - F2]) evaluated at pi / w_p."""
    f1, f2 = fringe_envelope_terms(cfp, math.pi / cfp.omega_p)
    d = f1 - f2
    return (1.0 + d) / (3.0 - d)


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
# integrates to zero; the rest separate, so the double integral collapses
# onto four tau-independent node profiles and each delay is a weighted sum
# of cosines over them (_cos_sums).  The constant Jacobian cancels in the
# normalization.
#
# Because phi is even, p2(u, v) = p1(-u, v) and p1(-u, -v) = p1(u, v).  Both
# node axes are built as exact mirror images of their positive halves (the
# 10-point rule has no node at 0), so the build evaluates one kernel block
# p1 over v > 0 only, reads p2 as its row reversal and folds the v < 0 half
# analytically; the two v profiles come out even in v, so each delay sums
# cos(v tau) over v > 0 with doubled weights.  The kernel is
# phi_L(x, L) / L = sin(y) / y with y = x L / 2: the L^2 cancels in the
# normalization.  None of this touches a closed form.

# panel density of the two builds the self-check compares
_PANEL_DENSITY = {"fine": 1.5, "coarse": 1.0}
# bytes of one float64 kernel block in the build loop, which holds two at
# once (y and p1, which the products overwrite), and of all the temporaries
# of one node chunk in _cos_sums
_BLOCK_BYTES = 16 << 20
# difference-axis reach in units of 1 / tau_theta: the squared sinc tails
# thin out as 1/v^2, leaving a relative baseline deficit ~2/(pi tau_theta
# v_half), so a reach of 3000 / tau_theta keeps truncation near 2e-4
_V_REACH = 3000.0
# |y| from which the kernel divides the angle-added sin(y), whose absolute
# error is a few ulp of 1, by y: the quotient is then off by a few ulp at most
_RIDGE = 1.0


def _mirrored_panels(half_width: float, panel: float, budget: int,
                     where: str) -> tuple[np.ndarray, np.ndarray]:
    """10-point Gauss-Legendre panels on [-half_width, half_width], with
    nodes and weights mirrored exactly from the positive half."""
    x, w = np.polynomial.legendre.leggauss(10)
    count = 2.0 * half_width / panel
    if not count <= budget:  # also an infinite count, which has no integer ceiling
        needs = math.ceil(count) if math.isfinite(count) else count
        raise NonConvergence(f"panel quadrature on the {where} needs {needs} panels, budget {budget}")
    n = max(1, math.ceil(count))
    edges = np.linspace(-half_width, half_width, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()[5 * n:]
    weights = (half[:, None] * w[None, :]).ravel()[5 * n:]
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


def _sinc_blocks(au: np.ndarray, bv: np.ndarray, chunk: int):
    """Yield (lo, p1, spare) for each chunk of up to `chunk` columns of
    p1[i, j] = sin(y) / y, y = au[i] + bv[lo + j], 1 at y = 0, over the
    ascending axis bv.  p1 and spare are (len(au), columns) views of two
    buffers that the next chunk reuses; the caller may overwrite both.

    sin(y) = sin(au) cos(bv) + cos(au) sin(bv) is one (len(au) x 2) @
    (2 x columns) matrix product, so the build takes len(au) + len(bv)
    sines and cosines instead of one sine per node pair.  Within _RIDGE of
    the ridge y = 0 that product's rounding would grow by 1 / |y|, so there
    p1 is sin(y) / y evaluated directly.
    """
    rows = np.stack((np.sin(au), np.cos(au)), axis=1)
    cols = np.stack((np.cos(bv), np.sin(bv)), axis=1)
    # the (i, j) with |y| < _RIDGE: each row's is one range of the sorted bv
    first = np.searchsorted(bv, -au - _RIDGE, side="right")
    count = np.searchsorted(bv, -au + _RIDGE, side="left") - first
    ridge_i = np.repeat(np.arange(len(au)), count)
    ridge_j = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    cells = len(au) * min(chunk, len(bv))
    y_buf, p_buf = np.empty(cells), np.empty(cells)
    for lo in range(0, len(bv), chunk):
        hi = min(lo + chunk, len(bv))
        shape, size = (len(au), hi - lo), len(au) * (hi - lo)
        y = np.add(au[:, None], bv[None, lo:hi], out=y_buf[:size].reshape(shape))
        p1 = np.matmul(rows, cols[lo:hi].T, out=p_buf[:size].reshape(shape))
        at = (ridge_j >= lo) & (ridge_j < hi)
        i, j = ridge_i[at], ridge_j[at] - lo
        y_ridge = y[i, j]
        y[i, j] = 1.0  # keeps y = 0 out of the division; these entries are replaced
        p1 /= y
        p1[i, j] = np.divide(np.sin(y_ridge), y_ridge, out=np.ones_like(y_ridge),
                             where=y_ridge != 0.0)
        yield lo, p1, y


class _RateEngine:
    """Tau-independent node profiles for one (crystal, pump) setting.

    un, vn (with weights wu, pump-weighted, and vw) are the full mirrored
    node axes; q_u and r_u live on un, g2_v and g3_v on the v > 0 half.
    """

    def __init__(self, params: PhaseMatchParams, pump: PumpSpectrum,
                 tau_max: float, grade: str, budget: int):
        gs, gi = params.gamma_s, params.gamma_i
        a = 0.5 * (gs + gi)
        b = 0.5 * (gs - gi)
        L = params.length
        tau_theta = abs(b) * L
        if abs(gs - gi) < 1e-12 * params.gamma:
            raise DegenerateDip("gamma_s = gamma_i: dip integrand degenerates")
        bw = pump.bandwidth
        density = _PANEL_DENSITY[grade]
        u_half = 8.0 * bw
        # the a*u/b term tracks the phase-matching ridge across the
        # pump-limited u range
        v_half = _V_REACH / tau_theta + 5.0 * bw * abs(a) / abs(b)
        u_rate = abs(a) * L / 2.0 + tau_max
        v_rate = abs(b) * L / 2.0 + tau_max
        panel_u = min(2.0 * math.pi / u_rate if u_rate > 0 else u_half, 0.7 * bw) / density
        panel_v = (2.0 * math.pi / v_rate) / density
        un, uw = _mirrored_panels(u_half, panel_u, budget, f"u axis ({grade} build)")
        vn, vw = _mirrored_panels(v_half, panel_v, budget, f"v axis ({grade} build)")
        half = len(vn) // 2
        vp, vwp = vn[half:], vw[half:]
        wu = np.exp(-((un / bw) ** 2)) * uw
        # sin(y) / y is even in y, so flipping both signs when b < 0 keeps
        # p1 and leaves bv ascending, as _sinc_blocks needs
        au = (math.copysign(0.5, b) * a * L) * un
        bv = (0.5 * abs(b) * L) * vp
        s_u = np.zeros_like(un)   # sum over v > 0 of p1^2
        c_u = np.zeros_like(un)   # sum over v > 0 of p1 * p2
        s_v = np.empty_like(vp)   # pump-weighted sum over u of p1^2
        c_v = np.empty_like(vp)   # pump-weighted sum over u of p1 * p2
        chunk = max(1, _BLOCK_BYTES // (8 * len(un)))
        for lo, p1, spare in _sinc_blocks(au, bv, chunk):
            hi = lo + p1.shape[1]
            cross = np.multiply(p1, p1[::-1], out=spare)
            sq = np.multiply(p1, p1, out=p1)
            s_u += sq @ vwp[lo:hi]
            c_u += cross @ vwp[lo:hi]
            s_v[lo:hi] = wu @ sq
            c_v[lo:hi] = wu @ cross
        self.un, self.wu, self.vn, self.vw = un, wu, vn, vw
        # sums over all v of (p1^2 + p2^2) and p1 * p2, and pump-weighted
        # sums over u of the same (wu is even, so the p2^2 sum equals s_v)
        self.q_u = 2.0 * (s_u + s_u[::-1])
        self.r_u = 2.0 * c_u
        self.g2_v = 2.0 * s_v
        self.g3_v = c_v
        self.mass = float(wu @ self.q_u)
        self.omega_p = pump.omega_p
        self._vp = vp
        self._w2 = 2.0 * vwp * self.g2_v
        self._w3 = 2.0 * vwp * self.g3_v

    # every cosine sum goes through _cos_sums, which evaluates a uniform
    # delay grid by blocked angle addition: a delay's value then depends on
    # the grid it came with, at the level of the rounding in its phases
    # (~1e-13), but never on the order of the calls or on the cache

    def hom(self, taus: np.ndarray) -> np.ndarray:
        (cross,) = _cos_sums(self._vp, self._w3[None, :], taus)
        return 1.0 - 2.0 * cross / self.mass

    def mz(self, taus: np.ndarray) -> np.ndarray:
        a1, b1 = _cos_sums(self.un + self.omega_p,
                           np.stack((self.wu * self.q_u, self.wu * self.r_u)), taus)
        a2, b2 = _cos_sums(self._vp, np.stack((self._w2, self._w3)), taus)
        raw = 0.25 * self.mass + 0.125 * (a1 + a2) + 0.25 * (b1 - b2)
        return raw / (0.25 * self.mass)


def _delay_blocks(taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anchors and offsets with taus[b K + j] = anchors[b] + offsets[j].

    On a uniform grid (every tau within 2 ulp of max |tau| of tau_0 + k d,
    as np.linspace gives) K = ceil(sqrt(n)) minimizes the 2 (K + n / K)
    cosines and sines per node; any other grid, or n <= 2, gets K = 1,
    anchors = taus and offsets = [0]: plain direct evaluation.
    """
    n = len(taus)
    if n > 2:
        d = (taus[-1] - taus[0]) / (n - 1)
        steps = np.arange(n)
        if np.max(np.abs(taus - (taus[0] + d * steps))) <= 2.0 * np.spacing(np.max(np.abs(taus))):
            k = math.isqrt(n - 1) + 1
            return taus[::k], d * steps[:k]
    return taus, np.zeros(1)


def _cos_sums(freq: np.ndarray, weights: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_i weights[r, i] cos(freq[i] tau) for every weight row r and delay
    tau, as a (rows, len(taus)) array.

    cos(f (t_b + s_j)) = cos(f t_b) cos(f s_j) - sin(f t_b) sin(f s_j) over
    the anchors t_b and offsets s_j of _delay_blocks, so each node chunk
    costs cosines and sines at the anchors and offsets and two matrix
    products; the chunk's temporaries together stay within _BLOCK_BYTES.
    """
    anchors, offsets = _delay_blocks(taus)
    rows, n_a, n_o = len(weights), len(anchors), len(offsets)
    acc = np.zeros((rows * n_a, n_o))
    chunk = max(1, _BLOCK_BYTES // (8 * (2 * (rows + 1) * n_a + 3 * n_o)))
    for lo in range(0, len(freq), chunk):
        f, w = freq[lo:lo + chunk], weights[:, None, lo:lo + chunk]
        phase = np.multiply.outer(anchors, f)
        cos_a = np.cos(phase)
        sin_a = np.sin(phase, out=phase)
        phase_o = np.multiply.outer(f, offsets)
        acc += (w * cos_a).reshape(rows * n_a, len(f)) @ np.cos(phase_o)
        acc -= (w * sin_a).reshape(rows * n_a, len(f)) @ np.sin(phase_o, out=phase_o)
    return acc.reshape(rows, n_a * n_o)[:, :len(taus)]


@functools.lru_cache(maxsize=8)
def _engines(params: PhaseMatchParams, pump: PumpSpectrum, tau_max: float,
             budget: int) -> tuple[_RateEngine, _RateEngine]:
    """The fine and coarse engines of one setting, built once and reused by
    every later trace of either kind on the same inputs."""
    return tuple(_RateEngine(params, pump, tau_max, grade, budget) for grade in _PANEL_DENSITY)


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
    reach = max(float(np.max(np.abs(taus))) if taus.size else 0.0, float(tau_max or 0.0))
    fine, coarse = _engines(params, pump, reach, spec.max_subdivisions)
    run = (lambda e: e.hom(taus)) if kind is TraceKind.HOM else (lambda e: e.mz(taus))
    values = run(fine)
    drift = float(np.max(np.abs(values - run(coarse)))) if taus.size else 0.0
    scale = float(np.max(np.abs(values))) if taus.size else 1.0
    if drift > max(spec.abs_tol, spec.rel_tol * scale):
        raise NonConvergence(
            f"panel refinement still moves the trace by {drift:.2e}"
        )
    return values


def hom_trace_integral(params: PhaseMatchParams, pump: PumpSpectrum,
                       taus: np.ndarray, spec: QuadratureSpec = TRACE_SPEC,
                       tau_max: float | None = None) -> np.ndarray:
    """Dip trace by quadrature of the raw rate integral, normalized to its
    large-delay baseline.  Self-checked by panel refinement.

    The panels resolve the oscillations up to the larger of max |taus| and
    tau_max, so a tau_max below the delays changes nothing.
    """
    return _trace_quadrature(TraceKind.HOM, params, pump, taus, spec, tau_max)


def mz_trace_integral(params: PhaseMatchParams, pump: PumpSpectrum,
                      taus: np.ndarray, spec: QuadratureSpec = TRACE_SPEC,
                      tau_max: float | None = None) -> np.ndarray:
    """Fringe trace by quadrature of the raw rate integral, normalized so
    the fringe-averaged large-delay value is 1."""
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
