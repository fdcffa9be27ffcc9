"""Joint spectral amplitude of the down-converted pair in the first-order
model: evaluation, factorization structure, limiting profiles, grids and
marginal spectra.

The amplitude carries units of length (um); every observable built on top
of it is a normalized ratio, so no global normalization is tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .dispersion import PhaseMatchParams
from .numerics import Interval, integrate_1d

__all__ = [
    "PumpSpectrum",
    "BiphotonAmplitude",
    "Grid2D",
    "LimitProfile",
    "pump_alpha",
    "phi_L",
    "amplitude",
    "factorization_check",
    "grid",
    "marginal_spectrum",
    "tb_amplitude",
    "db_amplitude",
    "truncation_halfwidth",
]


@dataclass(frozen=True)
class PumpSpectrum:
    """Gaussian pump: center omega_p and intensity 1/e half-width bandwidth,
    both in rad/ps and both > 0.  Every consumer of a pump relies on
    bandwidth > 0; the monochromatic limit is tb_amplitude(params), which
    takes no pump."""

    omega_p: float
    bandwidth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega_p) and math.isfinite(self.bandwidth)):
            raise ValueError("omega_p and bandwidth must be finite")
        if not self.omega_p > 0:
            raise ValueError("omega_p must be > 0")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be > 0")


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Joint spectral amplitude A(w_s, w_i) = pump envelope times
    phase-matching function, in the first-order mismatch model."""

    params: PhaseMatchParams
    pump: PumpSpectrum


@dataclass(frozen=True)
class Grid2D:
    """|A| sampled on a rectangular grid; rows follow the signal axis."""

    axis_s: np.ndarray
    axis_i: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class LimitProfile:
    """One-argument spectral profile of a maximally entangled limit state.

    profile maps the detuning of one photon to the amplitude weight;
    correlation_sign says how the partner detuning pairs up (-1: opposite
    sign, anti-correlated; +1: same sign, correlated).
    """

    profile: Callable[[float], float]
    correlation_sign: int


def pump_alpha(pump: PumpSpectrum, omega_sum) -> float | np.ndarray:
    """Pump spectral amplitude at the given sum frequency.

    Amplitude (not intensity) profile: exp[-(w - w_p)^2 / (2 bw^2)], the
    square root of the Gaussian intensity spectrum.  Taken real and
    positive; all observables downstream depend on its square only.
    """
    d = (np.asarray(omega_sum, dtype=float) - pump.omega_p) / pump.bandwidth
    out = np.exp(-0.5 * d * d)
    return float(out) if out.ndim == 0 else out


def phi_L(delta, length: float):
    """Phase-matching function sin(x L / 2) / (x / 2) for mismatch x.

    Equals length at x = 0; a short series branch below |x L| = 1e-6 avoids
    the 0/0 at the removable singularity.
    """
    if length <= 0:
        raise ValueError("length must be > 0")
    y = 0.5 * length * np.asarray(delta, dtype=float)
    small = np.abs(y) < 5e-7
    safe = np.where(small, 1.0, y)
    out = np.asarray(length * np.sin(safe) / safe)
    # the series only on the entries it replaces: the square of the others may overflow
    out[small] = length * (1.0 - y[small] ** 2 / 6.0)
    return float(out) if out.ndim == 0 else out


def amplitude(bp: BiphotonAmplitude, omega_s, omega_i):
    """A(w_s, w_i) = alpha(w_s + w_i) * phi_L(gamma_s ws~ + gamma_i wi~).

    Detunings are measured from the degenerate frequency w_p / 2.  Result
    units: um (phi_L carries the crystal length).
    """
    p = bp.params
    ds = np.asarray(omega_s, dtype=float) - 0.5 * p.omega_p
    di = np.asarray(omega_i, dtype=float) - 0.5 * p.omega_p
    mismatch = p.gamma_s * ds + p.gamma_i * di
    return pump_alpha(bp.pump, np.asarray(omega_s) + np.asarray(omega_i)) * phi_L(mismatch, p.length)


def truncation_halfwidth(params: PhaseMatchParams, pump: PumpSpectrum,
                         lobes: float = 6.0, sigmas: float = 8.0) -> float:
    """Detuning half-width outside which the amplitude is negligible.

    max(sigmas * pump bandwidth, lobes * one phase-matching lobe); the lobe
    scale uses the smaller of the two axis projections |cos theta|,
    |sin theta| (near-zero projections are skipped: that axis is bounded by
    the pump alone).
    """
    scales = [abs(math.cos(params.theta)), abs(math.sin(params.theta))]
    scales = [s for s in scales if s > 1e-9] or [1.0]
    lobe = 2.0 * math.pi / (params.gamma * params.length * min(scales))
    return max(sigmas * pump.bandwidth, lobes * lobe)


def factorization_check(bp: BiphotonAmplitude, n_samples: int) -> float:
    """Largest sampled defect |A - S(sum) D(diff)| of the sum/difference
    split, with S the pump envelope and D the phase-matching profile along
    the difference frequency.

    The split is exact (defect at round-off level, <= 1e-12 * length) on
    the gamma_s = -gamma_i ray and fails measurably elsewhere.
    """
    p = bp.params
    rng = np.random.default_rng(0)  # fixed seed: the check is deterministic
    half = truncation_halfwidth(p, bp.pump, lobes=3.0, sigmas=4.0)
    ds = rng.uniform(-half, half, n_samples)
    di = rng.uniform(-half, half, n_samples)
    ws = 0.5 * p.omega_p + ds
    wi = 0.5 * p.omega_p + di
    a = amplitude(bp, ws, wi)
    s = pump_alpha(bp.pump, ws + wi)
    d = phi_L((p.gamma / math.sqrt(2.0)) * (ds - di), p.length)
    return float(np.max(np.abs(a - s * d)))


def grid(bp: BiphotonAmplitude, span_s: Interval, span_i: Interval, n: int) -> Grid2D:
    """|A| on an n x n tensor grid (row-major, signal axis along rows).

    Raises:
        ValueError: n < 2, or the largest phase-matching phase on the grid
            is not finite (its sine would be nan).
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    p = bp.params
    reach = max(abs(x - 0.5 * p.omega_p) for x in (span_s.lo, span_s.hi, span_i.lo, span_i.hi))
    phase = 0.5 * p.length * ((abs(p.gamma_s) + abs(p.gamma_i)) * reach)
    if not math.isfinite(phase):
        raise ValueError(f"largest grid phase 0.5 L (|gamma_s| + |gamma_i|) max|detuning| = "
                         f"{phase} is not finite")
    axis_s = np.linspace(span_s.lo, span_s.hi, n)
    axis_i = np.linspace(span_i.lo, span_i.hi, n)
    vals = np.abs(amplitude(bp, axis_s[:, None], axis_i[None, :]))
    return Grid2D(axis_s=axis_s, axis_i=axis_i, values=vals)


def marginal_spectrum(bp: BiphotonAmplitude, which: Literal["signal", "idler"],
                      omega: float) -> float:
    """Single-photon spectrum: integral of |A|^2 over the partner frequency.

    The infinite domain is truncated to the standard half-width around the
    degenerate frequency.
    """
    if which not in ("signal", "idler"):
        raise ValueError("which must be 'signal' or 'idler'")
    p = bp.params
    half = truncation_halfwidth(p, bp.pump)
    center = 0.5 * p.omega_p
    lo, hi = center - half, center + half
    if which == "signal":
        f = lambda w: np.abs(amplitude(bp, omega, w)) ** 2
    else:
        f = lambda w: np.abs(amplitude(bp, w, omega)) ** 2
    # a narrow pump confines the integrand to a sliver of the truncated
    # domain; splitting at the pump window edges keeps the adaptive rule
    # from skipping over it
    ridge = bp.pump.omega_p - omega
    edges = sorted({lo, hi,
                    min(max(ridge - 10.0 * bp.pump.bandwidth, lo), hi),
                    min(max(ridge + 10.0 * bp.pump.bandwidth, lo), hi)})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            total += integrate_1d(f, Interval(a, b))
    return total


def tb_amplitude(params: PhaseMatchParams) -> LimitProfile:
    """Monochromatic-pump limit: phase-matching sinc over the detuning,
    partner detuning opposite in sign (frequency anti-correlated)."""
    dg = params.gamma_s - params.gamma_i

    def profile(detuning):
        return phi_L(dg * np.asarray(detuning, dtype=float), params.length)

    return LimitProfile(profile=profile, correlation_sign=-1)


def db_amplitude(pump: PumpSpectrum) -> LimitProfile:
    """Long-crystal limit: pump envelope along equal detunings (frequency
    correlated)."""

    def profile(detuning):
        return pump_alpha(pump, 2.0 * np.asarray(detuning, dtype=float) + pump.omega_p)

    return LimitProfile(profile=profile, correlation_sign=+1)
