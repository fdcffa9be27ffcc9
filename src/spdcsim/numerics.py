"""Self-contained numerical kernel: Gauss-Legendre panel quadrature and
bracketed root finding, the two primitives that math and numpy lack.

Everything above this module is pure math on these primitives, math and
numpy.  All functions are pure and reentrant; there is no shared mutable
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "QuadratureSpec",
    "NonConvergence",
    "NoSignChange",
    "gauss_legendre_panels",
    "find_root",
]

# panels one axis may take before the rule gives up (each caller sets its density)
PANEL_BUDGET = 2**15


class NonConvergence(RuntimeError):
    """Quadrature panel budget exhausted, or the self-check drift above its
    tolerance."""


class NoSignChange(ValueError):
    """Root bracket does not straddle a sign change.  Its own class because
    solve_epm catches it, and must not catch the ValueError of a frequency
    outside validity that the residual raises."""


@dataclass(frozen=True)
class Interval:
    """Finite interval [lo, hi] with lo < hi: a root bracket, a validity
    range or a grid span."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings of the quadrature traces' self-check: the fine-vs-coarse
    drift may reach max(abs_tol, rel_tol * max |trace|), and each node axis
    may take up to max_subdivisions panels."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-7
    max_subdivisions: int = PANEL_BUDGET

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# ---------------------------------------------------------------------------
# Gauss-Legendre panel rule
# ---------------------------------------------------------------------------

def panel_width(rate: float, scale: float, density: float) -> float:
    """Panel width min(2 pi / rate, 0.7 scale) / density for an axis whose
    integrand oscillates at `rate` (0 for none) under a Gaussian weight of
    1/e half-width `scale`."""
    return min(2.0 * math.pi / rate if rate > 0 else math.inf, 0.7 * scale) / density


def gauss_legendre_panels(half_width: float, panel: float, budget: int,
                          where: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 10-point Gauss-Legendre panels of width at most
    `panel` on [-half_width, half_width], mirrored exactly from the
    positive half (there is no node at 0).

    Raises:
        NonConvergence: more than `budget` panels needed; the message names
            the axis `where`.
    """
    x, w = np.polynomial.legendre.leggauss(10)
    count = 2.0 * half_width / panel
    if not count <= budget:  # also inf; counts past 1e9 print as .3g, not as 300 digits
        needs = math.ceil(count) if count <= 1e9 else f"{count:.3g}"
        raise NonConvergence(f"panel quadrature on the {where} needs {needs} panels, budget {budget}")
    n = max(1, math.ceil(count))
    edges = np.linspace(-half_width, half_width, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()[5 * n:]
    weights = (half[:, None] * w[None, :]).ravel()[5 * n:]
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def find_root(f: Callable[[float], float], bracket: Interval, tol: float) -> float:
    """Brent's method on a sign-changing bracket.

    Inverse-quadratic / secant steps with a bisection fallback, so
    convergence is guaranteed for any continuous f.  Returns x once the
    bracket width falls below tol (plus a machine-epsilon guard) or f(x)
    hits zero exactly.

    Raises:
        NoSignChange: f(lo) * f(hi) > 0.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({a})={fa} and f({b})={fb} have the same sign")
    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else (tol1 if m > 0 else -tol1)
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a

