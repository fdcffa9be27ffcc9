"""Joint spectral amplitude of the down-converted pair in the first-order
model: evaluation, factorization structure, limiting profiles, grids and
marginal spectra.

A setting is a crystal and a pump, passed as (params, pump); the pump
center omega_p is also the expansion point of the mismatch.  The amplitude
carries units of length (um); every observable built on top of it is a
normalized ratio, so no global normalization is tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .dispersion import PhaseMatchParams
from .numerics import PANEL_BUDGET, Interval, midpoint_rule

__all__ = [
    "PumpSpectrum",
    "pump_alpha",
    "phi_L",
    "amplitude",
    "grid",
    "marginal_spectrum",
    "tb_amplitude",
    "db_amplitude",
    "truncation_halfwidth",
]

# oversampling s of the marginal's step, docs/DERIVATION.md (4.3)-(4.4)
_MARGINAL_OVERSAMPLING = 1.3


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

    @property
    def reach(self) -> float:
        """Half-width 8 bw of the sum-frequency window that carries the
        pump: past it the intensity exp(-(w - w_p)^2 / bw^2) is below
        e^-64."""
        return 8.0 * self.bandwidth


def pump_alpha(pump: PumpSpectrum, omega_sum) -> float | np.ndarray:
    """Pump spectral amplitude at the given sum frequency.

    Amplitude (not intensity) profile: exp[-(w - w_p)^2 / (2 bw^2)], the
    square root of the Gaussian intensity spectrum.  Taken real and
    positive; all observables downstream depend on its square only.
    """
    # far outside a narrow pump d, or d * d, overflows to inf, and exp(-inf) = 0
    # is the exact limit, so the overflow is not an error
    with np.errstate(over="ignore"):
        d = (np.asarray(omega_sum, dtype=float) - pump.omega_p) / pump.bandwidth
        out = np.exp(-0.5 * d * d)
    return float(out) if out.ndim == 0 else out


def phi_L(delta, length: float):
    """Phase-matching function sin(x L / 2) / (x / 2) for mismatch x.

    Equals length exactly at x = 0, where the division is skipped; near it
    the quotient is within 2 ulp of the series length (1 - y^2 / 6).
    """
    if length <= 0:
        raise ValueError("length must be > 0")
    y = 0.5 * length * np.asarray(delta, dtype=float)
    out = np.divide(length * np.sin(y), y, out=np.full_like(y, length), where=y != 0.0)
    return float(out) if out.ndim == 0 else out


def amplitude(params: PhaseMatchParams, pump: PumpSpectrum, omega_s, omega_i):
    """A(w_s, w_i) = alpha(w_s + w_i) * phi_L(gamma_s ws~ + gamma_i wi~).

    Detunings are measured from the degenerate frequency w_p / 2 of the
    pump.  Result units: um (phi_L carries the crystal length).
    """
    ds = np.asarray(omega_s, dtype=float) - 0.5 * pump.omega_p
    di = np.asarray(omega_i, dtype=float) - 0.5 * pump.omega_p
    mismatch = params.gamma_s * ds + params.gamma_i * di
    return (pump_alpha(pump, np.asarray(omega_s) + np.asarray(omega_i))
            * phi_L(mismatch, params.length))


def truncation_halfwidth(params: PhaseMatchParams, pump: PumpSpectrum,
                         lobes: float = 6.0, sigmas: float = 8.0) -> float:
    """Detuning half-width outside which the amplitude is negligible.

    max(sigmas * pump bandwidth, lobes * one phase-matching lobe); the lobe
    scale uses the smaller of the two axis projections |cos theta|,
    |sin theta| (a near-zero projection is skipped: that axis is bounded by
    the pump alone, and the two are never both near zero).

    Raises:
        ValueError: gamma * length is so small that the lobe is not finite.
    """
    scales = [abs(math.cos(params.theta)), abs(math.sin(params.theta))]
    scales = [s for s in scales if s > 1e-9]
    width = params.gamma * params.length * min(scales)
    lobe = 2.0 * math.pi / width if width > 0 else math.inf
    if not math.isfinite(lobes * lobe):
        raise ValueError(f"gamma = {params.gamma} and length_um = {params.length} give a "
                         "phase-matching lobe 2 pi / (gamma * length_um) that is not finite")
    return max(sigmas * pump.bandwidth, lobes * lobe)


def grid(params: PhaseMatchParams, pump: PumpSpectrum, span: Interval,
         n: int) -> tuple[np.ndarray, np.ndarray]:
    """|A| on the n x n tensor grid span x span: returns (axis, values),
    with the signal axis along the rows of values.

    Raises:
        ValueError: n < 2, or the largest phase-matching phase on the grid
            is not finite (its sine would be nan).
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    reach = max(abs(x - 0.5 * pump.omega_p) for x in (span.lo, span.hi))
    phase = 0.5 * params.length * ((abs(params.gamma_s) + abs(params.gamma_i)) * reach)
    if not math.isfinite(phase):
        raise ValueError(f"largest grid phase 0.5 L (|gamma_s| + |gamma_i|) max|detuning| = "
                         f"{phase} is not finite")
    axis = np.linspace(span.lo, span.hi, n)
    return axis, np.abs(amplitude(params, pump, axis[:, None], axis[None, :]))


def marginal_spectrum(params: PhaseMatchParams, pump: PumpSpectrum,
                      which: Literal["signal", "idler"], omega: float) -> float:
    """Single-photon spectrum: integral of |A|^2 over the partner frequency.

    0 for an omega farther than the standard truncation half-width from the
    degenerate frequency.  Otherwise the partner frequency runs over the
    whole pump window, omega_p - omega +- 8 bw, where the pump intensity
    falls below e^-64, and the midpoint rule integrates it at a step set by
    the integrand's band limit: docs/DERIVATION.md (4.3)-(4.4).

    Raises:
        ValueError: omega is NaN (+-inf lies outside the window and gives 0).
        NonConvergence: the partner axis needs more than PANEL_BUDGET nodes.
    """
    if which not in ("signal", "idler"):
        raise ValueError("which must be 'signal' or 'idler'")
    if math.isnan(omega):
        raise ValueError("omega must not be NaN")
    if not abs(omega - 0.5 * pump.omega_p) <= truncation_halfwidth(params, pump):
        return 0.0
    partner, gamma = ("idler", params.gamma_i) if which == "signal" else ("signal", params.gamma_s)
    step = 2.0 * math.pi / (_MARGINAL_OVERSAMPLING
                            * (abs(gamma) * params.length + 12.0 / pump.bandwidth))
    nodes, weights = midpoint_rule(pump.reach, step, PANEL_BUDGET,
                                   f"{partner} axis ({which} marginal)")
    w = (pump.omega_p - omega) + nodes
    a = amplitude(params, pump, omega, w) if which == "signal" else amplitude(params, pump, w, omega)
    return float(weights @ (a * a))


def tb_amplitude(params: PhaseMatchParams) -> Callable[[float], float]:
    """Monochromatic-pump limit, as a profile over the signal detuning x:
    the phase-matching sinc at idler detuning -x (frequency
    anti-correlated)."""
    dg = params.gamma_s - params.gamma_i

    def profile(detuning):
        return phi_L(dg * np.asarray(detuning, dtype=float), params.length)

    return profile


def db_amplitude(pump: PumpSpectrum) -> Callable[[float], float]:
    """Long-crystal limit, as a profile over the signal detuning x: the pump
    envelope at idler detuning +x (frequency correlated)."""

    def profile(detuning):
        return pump_alpha(pump, 2.0 * np.asarray(detuning, dtype=float) + pump.omega_p)

    return profile
