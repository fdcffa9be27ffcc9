from __future__ import annotations

import math

import numpy as np
import pytest

from spdcsim import (
    Interval,
    NoSignChange,
    QuadratureSpec,
    derivative,
    erf,
    find_root,
    gauss_legendre_panels,
)


# ---------------------------------------------------------------------------
# erf
# ---------------------------------------------------------------------------

def erf_taylor_oracle(x: float) -> float:
    # independent Maclaurin oracle, summed to convergence
    total, term = 0.0, x
    n = 0
    while abs(term) > 1e-20 * max(1.0, abs(total)):
        total += term / (2 * n + 1) if n % 2 == 0 else -term / (2 * n + 1)
        n += 1
        term *= x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def test_erf_spec_points():
    assert erf(0.0) == 0.0
    assert abs(erf(6.0) - 1.0) <= 1e-13
    assert abs(erf(1.0) - erf_taylor_oracle(1.0)) <= 1e-14
    assert abs(erf(1.0) - 0.8427007929) <= 1e-9


def test_erf_absolute_error_bound():
    xs = np.linspace(-7.0, 7.0, 4001)
    worst = max(abs(erf(float(x)) - math.erf(float(x))) for x in xs)
    assert worst <= 1e-13


def test_erf_odd_and_bounded():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-5.0, 5.0, 1000):
        assert erf(-float(x)) == -erf(float(x))
        assert abs(erf(float(x))) <= 1.0


def test_erf_saturates():
    for x in (6.0, 10.0, 1e6):
        assert erf(x) == 1.0
        assert erf(-x) == -1.0


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

def test_panels_are_mirrored_and_integrate_a_gaussian():
    nodes, weights = gauss_legendre_panels(8.0, 0.5, 32, "x axis")
    assert len(nodes) == 32 * 10
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert weights @ np.exp(-nodes**2) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_root_linear():
    assert abs(find_root(lambda x: x - 3.0, Interval(0.0, 10.0), 1e-12) - 3.0) < 1e-10


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


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_orders():
    assert abs(derivative(lambda x: x * x, 3.0, 1, 1e-5) - 6.0) < 1e-8
    assert abs(derivative(lambda x: x * x, 1.7, 2, 1e-4) - 2.0) < 1e-6
    h = 1e-3
    assert abs(derivative(math.sin, 0.0, 3, h) + 1.0) < 10.0 * h * h


def test_derivative_cubic_relative_accuracy():
    # first derivative of a cubic to 1e-6 relative with h = 1e-4 * scale
    f = lambda x: 0.3 * x**3 - 2.0 * x**2 + 5.0 * x - 1.0
    df = lambda x: 0.9 * x**2 - 4.0 * x + 5.0
    for x in (0.5, 2.0, 10.0):
        h = 1e-4 * max(1.0, abs(x))
        got = derivative(f, x, 1, h)
        assert abs(got - df(x)) <= 1e-6 * abs(df(x))


def test_interval_and_spec_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
