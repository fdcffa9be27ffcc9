"""Crystal dispersion models and everything derived from wave numbers.

Units throughout: angular frequency in rad/ps, length in um, wave number in
1/um, group-delay coefficients in ps/um.  Frequencies quoted in 1/s convert
at the boundary (2e15 1/s == 2000 rad/ps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .numerics import Interval, NoSignChange, find_root

__all__ = [
    "ZeroCurvature",
    "PolynomialBranch",
    "KnobSpec",
    "DispersionModel",
    "PhaseMatchParams",
    "ValidityReport",
    "taylor_gammas",
    "polar_params",
    "check_condition",
    "solve_epm",
    "fluorescence_bandwidth",
    "validity_bound",
]

class ZeroCurvature(ValueError):
    """Mismatch curvature vanishes at degeneracy; the length bound is
    infinite.  Its own class because the match report catches it, and must
    not catch the ValueError of a frequency outside validity."""


# ---------------------------------------------------------------------------
# Wave-number branches
# ---------------------------------------------------------------------------

class PolynomialBranch:
    """Wave number k(w) as a polynomial in angular frequency, with analytic
    derivatives up to any order."""

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = tuple(float(c) for c in coeffs)

    def __call__(self, w: float) -> float:
        return self.derivative(w, 0)

    def derivative(self, w: float, order: int) -> float:
        if order < 0:
            raise ValueError("order must be >= 0")
        acc = 0.0
        for j in range(len(self.coeffs) - 1, order - 1, -1):
            fac = 1.0
            for m in range(j, j - order, -1):
                fac *= m
            acc = acc * w + fac * self.coeffs[j]
        return acc

    def shifted(self, order: int, delta: float) -> "PolynomialBranch":
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = list(self.coeffs)
        while len(coeffs) <= order:
            coeffs.append(0.0)
        coeffs[order] += delta
        return PolynomialBranch(coeffs)


@dataclass(frozen=True)
class KnobSpec:
    """Declares which polynomial coefficient the tuning knob zeta shifts."""

    branch: str  # "p", "s" or "i"
    order: int

    def __post_init__(self) -> None:
        if self.branch not in ("p", "s", "i"):
            raise ValueError("knob branch must be one of p, s, i")
        if self.order < 0:
            raise ValueError("knob order must be >= 0")


@dataclass(frozen=True)
class DispersionModel:
    """The three wave-number branches k_p, k_s, k_i plus a validity interval
    and an optional tuning knob (a temperature-like coefficient shift)."""

    k_p: PolynomialBranch
    k_s: PolynomialBranch
    k_i: PolynomialBranch
    validity: Interval
    knob: KnobSpec | None = None

    def check_inside(self, *freqs: float) -> None:
        for w in freqs:
            if not (self.validity.lo <= w <= self.validity.hi):
                raise ValueError(
                    f"frequency {w} rad/ps outside validity "
                    f"[{self.validity.lo}, {self.validity.hi}]"
                )

    def with_zeta(self, zeta: float) -> "DispersionModel":
        """Model with the knob coefficient shifted by zeta; a model that
        declares no knob has nothing to shift and comes back unchanged."""
        if self.knob is None:
            return self
        name = f"k_{self.knob.branch}"
        return replace(self, **{name: getattr(self, name).shifted(self.knob.order, zeta)})


# ---------------------------------------------------------------------------
# First-order description of a matched crystal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseMatchParams:
    """Polar (gamma, theta) form of the group-delay coefficients, taken at
    the pump center (taylor_gammas(model, omega_p)), plus the crystal
    length.  The center itself is the pump's: a setting is (params, pump)."""

    gamma: float    # ps/um
    theta: float    # rad
    length: float   # um

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.gamma, self.theta, self.length))):
            raise ValueError("gamma, theta and length must be finite")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.length > 0:
            raise ValueError("length must be > 0")
        if not math.isfinite(self.gamma * self.length):
            raise ValueError(f"gamma * length = {self.gamma * self.length} is not finite")

    @property
    def gamma_s(self) -> float:
        return self.gamma * math.cos(self.theta)

    @property
    def gamma_i(self) -> float:
        return self.gamma * math.sin(self.theta)

    @property
    def gammas_equal(self) -> bool:
        """True on the gamma_s = gamma_i ray (theta = pi/4 mod pi), taken as
        |cos theta - sin theta| < 1e-12: the phase-matching bandwidth
        diverges and the dip has zero width."""
        return abs(math.cos(self.theta) - math.sin(self.theta)) < 1e-12

    @property
    def gammas_opposite(self) -> bool:
        """True on the gamma_s = -gamma_i ray (theta = -pi/4 mod pi), the
        extended phase-matching ray, taken as |cos theta + sin theta| < 1e-12:
        the amplitude factorizes and the sum detuning drops out of the
        phase matching."""
        return abs(math.cos(self.theta) + math.sin(self.theta)) < 1e-12


@dataclass(frozen=True)
class ValidityReport:
    """Crystal length bound for the first-order treatment, set by the
    curvature of the mismatch at degeneracy (see validity_bound)."""

    l_max: float  # um


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _derivatives_at_degeneracy(model: DispersionModel, omega_p: float,
                               order: int) -> tuple[float, float, float]:
    """(k_p^(n)(w_p), k_s^(n)(w_p/2), k_i^(n)(w_p/2)) after model.check_inside(w_p, w_p/2)."""
    half = omega_p / 2
    model.check_inside(omega_p, half)
    return (model.k_p.derivative(omega_p, order), model.k_s.derivative(half, order),
            model.k_i.derivative(half, order))


def taylor_gammas(model: DispersionModel, omega_p: float) -> tuple[float, float]:
    """First-order mismatch coefficients (group-delay differences, ps/um),
    docs/DERIVATION.md (1.3):
    gamma_s = k_p'(w_p) - k_s'(w_p/2) and gamma_i = k_p'(w_p) - k_i'(w_p/2).
    """
    kp1, ks1, ki1 = _derivatives_at_degeneracy(model, omega_p, 1)
    return kp1 - ks1, kp1 - ki1


def polar_params(gamma_s: float, gamma_i: float) -> tuple[float, float]:
    """Polar form, docs/DERIVATION.md (1.5): gamma = hypot(gamma_s, gamma_i),
    theta = atan2(gamma_i, gamma_s).

    Raises:
        ValueError: both coefficients are zero (type-I-like regime,
            outside the first-order model).
    """
    gamma = math.hypot(gamma_s, gamma_i)
    if gamma == 0.0:
        raise ValueError("gamma_s = gamma_i = 0; first-order model invalid")
    return gamma, math.atan2(gamma_i, gamma_s)


def check_condition(model: DispersionModel, omega_p: float, order: int) -> float:
    """Signed residual of the order-n matching condition

        d^n k_p/dw^n (w_p) - 2^(-n) [d^n k_s/dw^n + d^n k_i/dw^n](w_p / 2),

    the n-th w-derivative at the pump center w = w_p of the mismatch
    Dk(w/2, w/2) along the degenerate line, where
    Dk(w_s, w_i) = k_p(w_s + w_i) - k_s(w_s) - k_i(w_i) in 1/um.
    Order 0 is the conventional condition (zero mismatch at degeneracy),
    order 1 the group-velocity condition; docs/DERIVATION.md (1.1) and (1.2).
    The residual itself is returned so callers can grade near-misses.
    """
    kp, ks, ki = _derivatives_at_degeneracy(model, omega_p, order)
    return kp - (ks + ki) / 2.0**order


def solve_epm(model: DispersionModel, omega_bracket: Interval,
              zeta_bracket: Interval) -> tuple[float, float]:
    """Solve the order-0 and order-1 conditions jointly for (omega_p, zeta).

    Nested, bisection-safe 1-d solves.  The omega-derivative of the order-0
    residual is identically the order-1 residual, so a joint solution is a
    tangential (double) root of the order-0 residual in omega and can never
    be bracketed directly.  The transversal nesting is used instead: for
    each knob value zeta the order-1 residual is rooted in omega, then the
    order-0 residual at that omega is rooted in zeta.

    Raises:
        ValueError: a required sign change is missing.
    """

    # the residuals can be steep functions of the solve variables, so both
    # 1-d solves run to machine precision
    eps = 2.220446049250313e-16
    t_omega = 4.0 * eps * max(abs(omega_bracket.lo), abs(omega_bracket.hi), 1.0)
    t_zeta = 4.0 * eps * max(abs(zeta_bracket.lo), abs(zeta_bracket.hi))

    def omega_at(zeta: float) -> float:
        m = model.with_zeta(zeta)
        f = lambda w: check_condition(m, w, 1)
        try:
            return find_root(f, omega_bracket, t_omega)
        except NoSignChange as exc:
            raise ValueError(
                f"order-1 residual has no root in the omega bracket at zeta={zeta}"
            ) from exc

    def mismatch_at_crossing(zeta: float) -> float:
        return check_condition(model.with_zeta(zeta), omega_at(zeta), 0)

    try:
        zeta = find_root(mismatch_at_crossing, zeta_bracket, t_zeta)
    except NoSignChange as exc:
        raise ValueError(
            "order-0 residual has no sign change over the zeta bracket"
        ) from exc
    return omega_at(zeta), zeta


def fluorescence_bandwidth(params: PhaseMatchParams) -> float:
    """Phase-matching bandwidth 4*pi / (L |gamma_s - gamma_i|) in rad/ps,
    docs/DERIVATION.md (1.6).

    Raises:
        ValueError: gamma_s == gamma_i (theta = pi/4 ray).
    """
    if params.gammas_equal:
        raise ValueError("gamma_s = gamma_i; bandwidth diverges")
    return 4.0 * math.pi / (params.length * abs(params.gamma_s - params.gamma_i))


def validity_bound(model: DispersionModel, omega_p: float, pump_bw: float) -> ValidityReport:
    """Second-order validity check of the first-order mismatch expansion.

    The curvature matrix of the mismatch at degeneracy,
        H11 = k_p''(w_p) - k_s''(w_p/2),  H22 = k_p''(w_p) - k_i''(w_p/2),
        H12 = H21 = k_p''(w_p),
    has the eigenvalues (H11 + H22)/2 +- hypot((H11 - H22)/2, H12), so its
    larger-magnitude eigenvalue mu has |mu| = |H11 + H22|/2 + that hypot.
    The crystal length bound is l_max = 8*pi / (|mu| * pump_bw^2);
    docs/DERIVATION.md (1.7) and (1.8).

    Raises:
        ZeroCurvature: mu = 0, so the bound is infinite.
    """
    kp2, ks2, ki2 = _derivatives_at_degeneracy(model, omega_p, 2)
    h11 = kp2 - ks2
    h22 = kp2 - ki2
    abs_mu = abs(h11 + h22) / 2 + math.hypot((h11 - h22) / 2, kp2)
    if abs_mu == 0.0:
        raise ZeroCurvature("mismatch curvature vanishes; l_max is infinite")
    return ValidityReport(l_max=8.0 * math.pi / (abs_mu * pump_bw**2))
