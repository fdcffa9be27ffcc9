from __future__ import annotations

import math
import re

import numpy as np
import pytest

from spdcsim import (
    Interval,
    NoSignChange,
    NonConvergence,
    QuadratureSpec,
    find_root,
    midpoint_rule,
)


# ---------------------------------------------------------------------------
# midpoint rule
# ---------------------------------------------------------------------------

def test_panels_are_mirrored_and_integrate_a_gaussian():
    # the midpoint rule's cells are its panels: a step of 0.3 does not divide
    # 8, so it shrinks to 8 / 27 and the last cell ends at 8; 54 nodes fit a
    # budget of 54
    nodes, weights = midpoint_rule(8.0, 0.3, 54, "x axis")
    h = 8.0 / 27
    assert len(nodes) == 54 and 0.0 not in nodes
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(nodes[27:], (np.arange(27) + 0.5) * h)
    assert np.array_equal(weights, np.full(54, h))
    # exp(-x^2) has the transform sqrt(pi) exp(-k^2 / 4): at h = 8 / 27 the
    # first alias, k = 2 pi / h, is e^-112 down, at a step of 1 only e^-9.9
    assert weights @ np.exp(-nodes**2) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    nodes, weights = midpoint_rule(8.0, 1.0, 64, "x axis")
    assert abs(weights @ np.exp(-nodes**2) / math.sqrt(math.pi) - 1.0) > 1e-5


@pytest.mark.parametrize("half_width, needs", [
    (16.5, "34"), (5e8, "1000000000"), (5e8 + 1, "1e+09"), (1e300, "2e+300"),
    (math.inf, "inf"),
], ids=["exact", "1e9_exact", "past_1e9", "huge", "infinite"])
def test_panel_budget_error_prints_counts_past_1e9_in_short_form(half_width, needs):
    with pytest.raises(NonConvergence, match=f"needs {re.escape(needs)} nodes, budget 32$"):
        midpoint_rule(half_width, 1.0, 32, "x axis")


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_root_linear():
    assert abs(find_root(lambda x: x - 3.0, Interval(0.0, 10.0), 1e-12) - 3.0) < 1e-10
    # a root on either end is returned as it is
    assert find_root(lambda x: x, Interval(0.0, 10.0), 1e-12) == 0.0
    assert find_root(lambda x: x - 10.0, Interval(0.0, 10.0), 1e-12) == 10.0


def test_root_cosine():
    got = find_root(math.cos, Interval(1.0, 2.0), 1e-14)
    assert abs(got - math.pi / 2) < 1e-12


def test_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: 1.0 + x * x, Interval(-1.0, 1.0), 1e-10)


def test_root_planted_quadratic():
    root = 4.3217
    f = lambda x: (x - root) * (x + 5.0)
    got = find_root(f, Interval(0.0, 10.0), 1e-14)
    assert abs(got - root) < 1e-10 * root


def test_root_residual_postcondition():
    rng = np.random.default_rng(3)
    tol = 1e-12
    for _ in range(50):
        coeffs = rng.uniform(-2.0, 2.0, 4)
        f = lambda x: coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
        lo, hi = -4.0, 4.0
        if f(lo) * f(hi) > 0:
            continue
        root = find_root(f, Interval(lo, hi), tol)
        assert abs(f(root)) <= tol * max(1.0, abs(f(lo)), abs(f(hi))) + 1e-12


def test_interval_and_spec_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError, match="abs_tol must be >= 0"):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
