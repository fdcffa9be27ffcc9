"""Self-contained numerical kernel: the midpoint quadrature rule and
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
    "midpoint_rule",
    "find_root",
]

# nodes one axis may take before the rule gives up (each caller sets its step)
PANEL_BUDGET = 10 * 2**15


class NonConvergence(RuntimeError):
    """Quadrature node budget exhausted, or the self-check drift above its
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
    may take up to max_subdivisions nodes."""

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
# Midpoint rule
# ---------------------------------------------------------------------------

def midpoint_rule(half_width: float, step: float, budget: int,
                  where: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (k + 1/2) h and equal weights h of the midpoint rule on
    [-half_width, half_width], with h the largest step at most `step` that
    ends a cell exactly at half_width; the nodes are mirrored exactly from
    the positive half, so there is no node at 0.  The sum is f's integral
    over the whole line once f is band-limited below 2 pi / step:
    docs/DERIVATION.md (4.4).

    Raises:
        NonConvergence: more than `budget` nodes needed; the message names
            the axis `where`.
    """
    side = half_width / step
    # inf, and counts past 1e9, stay floats: they print as .3g, not as 300 digits
    count = 2 * math.ceil(side) if side <= 5e8 else 2.0 * side
    if not count <= budget:
        needs = count if count <= 1e9 else f"{count:.3g}"
        raise NonConvergence(f"midpoint rule on the {where} needs {needs} nodes, budget {budget}")
    n = max(1, count // 2)
    h = half_width / n
    nodes = (np.arange(n) + 0.5) * h
    return np.concatenate((-nodes[::-1], nodes)), np.full(2 * n, h)


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

