"""Crystal dispersion models and everything derived from wave numbers.

Units throughout: angular frequency in rad/ps, length in um, wave number in
1/um, group-delay coefficients in ps/um.  Frequencies quoted in 1/s convert
at the boundary (2e15 1/s == 2000 rad/ps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .numerics import Interval, NoSignChange, derivative, find_root

__all__ = [
    "SPEED_OF_LIGHT_UM_PER_PS",
    "OutOfValidityRange",
    "DegenerateGammas",
    "InfiniteBandwidth",
    "ZeroCurvature",
    "NoSolutionInBracket",
    "PolynomialBranch",
    "CallableBranch",
    "KnobSpec",
    "DispersionModel",
    "PhaseMatchParams",
    "ValidityReport",
    "vacuum_model",
    "phase_mismatch",
    "taylor_gammas",
    "polar_params",
    "check_condition",
    "solve_epm",
    "fluorescence_bandwidth",
    "validity_bound",
]

SPEED_OF_LIGHT_UM_PER_PS = 299.792458


class OutOfValidityRange(ValueError):
    """Frequency lies outside the model's declared validity interval."""


class DegenerateGammas(ValueError):
    """Both group-delay coefficients vanish; the first-order picture breaks."""


class InfiniteBandwidth(ValueError):
    """gamma_s == gamma_i, so the phase-matching bandwidth diverges."""


class ZeroCurvature(ValueError):
    """Mismatch curvature vanishes at degeneracy; the length bound is infinite."""


class NoSolutionInBracket(ValueError):
    """Joint matching residuals have no sign change inside the brackets."""


# ---------------------------------------------------------------------------
# Wave-number branches
# ---------------------------------------------------------------------------

class PolynomialBranch:
    """Wave number k(w) as a polynomial in angular frequency, with analytic
    derivatives up to any order."""

    def __init__(self, coeffs: Sequence[float]):
        self.coeffs = tuple(float(c) for c in coeffs)

    def __call__(self, w: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc

    def derivative(self, w: float, order: int) -> float:
        acc = 0.0
        for j in range(len(self.coeffs) - 1, order - 1, -1):
            fac = 1.0
            for m in range(j, j - order, -1):
                fac *= m
            acc = acc * w + fac * self.coeffs[j]
        return acc

    def shifted(self, order: int, delta: float) -> "PolynomialBranch":
        coeffs = list(self.coeffs)
        while len(coeffs) <= order:
            coeffs.append(0.0)
        coeffs[order] += delta
        return PolynomialBranch(coeffs)


class CallableBranch:
    """Black-box wave-number branch; derivatives come from central
    differences with an order-dependent step."""

    def __init__(self, fn: Callable[[float], float]):
        self.fn = fn

    def __call__(self, w: float) -> float:
        return self.fn(w)

    def derivative(self, w: float, order: int) -> float:
        # larger steps for higher orders keep round-off noise below the
        # 1e-6 relative consistency target for smooth branches
        h = 1e-4 * max(1.0, abs(w)) * (30.0 ** (order - 1))
        return derivative(self.fn, w, order, h)


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

    k_p: PolynomialBranch | CallableBranch
    k_s: PolynomialBranch | CallableBranch
    k_i: PolynomialBranch | CallableBranch
    validity: Interval
    knob: KnobSpec | None = None

    def branch(self, name: str) -> PolynomialBranch | CallableBranch:
        return {"p": self.k_p, "s": self.k_s, "i": self.k_i}[name]

    def check_inside(self, *freqs: float) -> None:
        for w in freqs:
            if not (self.validity.lo <= w <= self.validity.hi):
                raise OutOfValidityRange(
                    f"frequency {w} rad/ps outside validity "
                    f"[{self.validity.lo}, {self.validity.hi}]"
                )

    def with_zeta(self, zeta: float) -> "DispersionModel":
        """Model with the knob coefficient shifted by zeta."""
        if self.knob is None:
            raise ValueError("model declares no tuning knob")
        branch = self.branch(self.knob.branch)
        if not isinstance(branch, PolynomialBranch):
            raise ValueError("tuning knob requires a polynomial branch")
        shifted = branch.shifted(self.knob.order, zeta)
        return replace(self, **{f"k_{self.knob.branch}": shifted})


def vacuum_model(span: Interval = Interval(1.0, 1e4)) -> DispersionModel:
    """All three branches k = w/c: zero mismatch at every order."""
    b = PolynomialBranch([0.0, 1.0 / SPEED_OF_LIGHT_UM_PER_PS])
    return DispersionModel(k_p=b, k_s=b, k_i=b, validity=span)


# ---------------------------------------------------------------------------
# First-order description of a matched crystal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseMatchParams:
    """Pump center frequency plus the polar (gamma, theta) form of the
    group-delay coefficients and the crystal length."""

    omega_p: float  # rad/ps
    gamma: float    # ps/um
    theta: float    # rad
    length: float   # um

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.omega_p, self.gamma, self.theta, self.length))):
            raise ValueError("omega_p, gamma, theta and length must be finite")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.length > 0:
            raise ValueError("length must be > 0")

    @property
    def gamma_s(self) -> float:
        return self.gamma * math.cos(self.theta)

    @property
    def gamma_i(self) -> float:
        return self.gamma * math.sin(self.theta)

    @classmethod
    def from_gammas(cls, omega_p: float, gamma_s: float, gamma_i: float,
                    length: float) -> "PhaseMatchParams":
        gamma, theta = polar_params(gamma_s, gamma_i)
        return cls(omega_p=omega_p, gamma=gamma, theta=theta, length=length)


@dataclass(frozen=True)
class ValidityReport:
    """Curvature of the mismatch at degeneracy and the resulting crystal
    length bound for the first-order treatment."""

    hessian: tuple[tuple[float, float], tuple[float, float]]  # ps^2/um
    mu: float    # max-magnitude eigenvalue, ps^2/um
    l_max: float  # um


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def phase_mismatch(model: DispersionModel, omega_s: float, omega_i: float) -> float:
    """Wave-number mismatch k_p(w_s + w_i) - k_s(w_s) - k_i(w_i) in 1/um."""
    model.check_inside(omega_s, omega_i, omega_s + omega_i)
    return model.k_p(omega_s + omega_i) - model.k_s(omega_s) - model.k_i(omega_i)


def taylor_gammas(model: DispersionModel, omega_p: float) -> tuple[float, float]:
    """First-order mismatch coefficients (group-delay differences, ps/um):
    gamma_s = k_p'(w_p) - k_s'(w_p/2) and gamma_i = k_p'(w_p) - k_i'(w_p/2).
    """
    model.check_inside(omega_p, omega_p / 2)
    kp1 = model.k_p.derivative(omega_p, 1)
    return (kp1 - model.k_s.derivative(omega_p / 2, 1),
            kp1 - model.k_i.derivative(omega_p / 2, 1))


def polar_params(gamma_s: float, gamma_i: float) -> tuple[float, float]:
    """Polar form: gamma = hypot(gamma_s, gamma_i), theta = atan2(gamma_i, gamma_s).

    Raises:
        DegenerateGammas: both coefficients are zero (type-I-like regime,
            outside the first-order model).
    """
    gamma = math.hypot(gamma_s, gamma_i)
    if gamma == 0.0:
        raise DegenerateGammas("gamma_s = gamma_i = 0; first-order model invalid")
    return gamma, math.atan2(gamma_i, gamma_s)


def check_condition(model: DispersionModel, omega_p: float, order: int) -> float:
    """Signed residual of the order-n matching condition

        d^n k_p/dw^n (w_p) - 2^(-n) [d^n k_s/dw^n + d^n k_i/dw^n](w_p / 2).

    Order 0 is the conventional condition (zero mismatch at degeneracy),
    order 1 the group-velocity condition.  The residual itself is returned
    so callers can grade near-misses.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    model.check_inside(omega_p, omega_p / 2)
    half = omega_p / 2
    if order == 0:
        kp = model.k_p(omega_p)
        ks, ki = model.k_s(half), model.k_i(half)
    else:
        kp = model.k_p.derivative(omega_p, order)
        ks = model.k_s.derivative(half, order)
        ki = model.k_i.derivative(half, order)
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
        NoSolutionInBracket: a required sign change is missing.
    """

    # the residuals can be steep functions of the solve variables, so both
    # 1-d solves run to machine precision
    eps = 2.220446049250313e-16
    t_omega = 4.0 * eps * max(abs(omega_bracket.lo), abs(omega_bracket.hi), 1.0)
    t_zeta = 4.0 * eps * max(abs(zeta_bracket.lo), abs(zeta_bracket.hi))

    def at_zeta(zeta: float) -> DispersionModel:
        return model.with_zeta(zeta) if model.knob is not None else model

    def omega_at(zeta: float) -> float:
        m = at_zeta(zeta)
        f = lambda w: check_condition(m, w, 1)
        try:
            return find_root(f, omega_bracket, t_omega)
        except NoSignChange as exc:
            raise NoSolutionInBracket(
                f"order-1 residual has no root in the omega bracket at zeta={zeta}"
            ) from exc

    def mismatch_at_crossing(zeta: float) -> float:
        return check_condition(at_zeta(zeta), omega_at(zeta), 0)

    try:
        zeta = find_root(mismatch_at_crossing, zeta_bracket, t_zeta)
    except NoSignChange as exc:
        raise NoSolutionInBracket(
            "order-0 residual has no sign change over the zeta bracket"
        ) from exc
    return omega_at(zeta), zeta


def fluorescence_bandwidth(params: PhaseMatchParams) -> float:
    """Phase-matching bandwidth 4*pi / (L |gamma_s - gamma_i|) in rad/ps.

    Raises:
        InfiniteBandwidth: gamma_s == gamma_i (theta = pi/4 ray).
    """
    diff = abs(params.gamma_s - params.gamma_i)
    if diff <= 1e-12 * params.gamma:
        raise InfiniteBandwidth("gamma_s = gamma_i; bandwidth diverges")
    return 4.0 * math.pi / (params.length * diff)


def validity_bound(model: DispersionModel, omega_p: float, pump_bw: float) -> ValidityReport:
    """Second-order validity check of the first-order mismatch expansion.

    Builds the curvature matrix of the mismatch at degeneracy,
        H11 = k_p''(w_p) - k_s''(w_p/2),  H22 = k_p''(w_p) - k_i''(w_p/2),
        H12 = H21 = k_p''(w_p),
    takes its max-magnitude eigenvalue mu and reports the crystal length
    bound l_max = 8*pi / (|mu| * pump_bw^2).

    Raises:
        ZeroCurvature: mu = 0, so the bound is infinite.
    """
    model.check_inside(omega_p, omega_p / 2)
    kp2 = model.k_p.derivative(omega_p, 2)
    h11 = kp2 - model.k_s.derivative(omega_p / 2, 2)
    h22 = kp2 - model.k_i.derivative(omega_p / 2, 2)
    h12 = kp2
    mean = 0.5 * (h11 + h22)
    disc = math.hypot(0.5 * (h11 - h22), h12)
    lam1, lam2 = mean + disc, mean - disc
    mu = lam1 if abs(lam1) >= abs(lam2) else lam2
    if mu == 0.0:
        raise ZeroCurvature("mismatch curvature vanishes; l_max is infinite")
    return ValidityReport(
        hessian=((h11, h12), (h12, h22)),
        mu=mu,
        l_max=8.0 * math.pi / (abs(mu) * pump_bw**2),
    )
