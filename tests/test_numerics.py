from __future__ import annotations

import math

import numpy as np
import pytest

from spdcsim import (
    Interval,
    NonConvergence,
    NoSignChange,
    QuadratureSpec,
    derivative,
    erf,
    find_root,
    integrate_1d,
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
# 1-d quadrature
# ---------------------------------------------------------------------------

def test_integral_linear():
    assert abs(integrate_1d(lambda x: x, Interval(0.0, 1.0)) - 0.5) < 1e-13


def test_integral_gaussian():
    got = integrate_1d(lambda x: np.exp(-x * x), Interval(-8.0, 8.0))
    assert abs(got - math.sqrt(math.pi)) < 1e-10


def test_integral_sinc_squared_vs_trapezoid_oracle():
    def f(x):
        return (2.0 * np.sinc(x / (2.0 * np.pi)))**2  # (2 sin(x/2)/x)^2

    xs = np.linspace(-200.0, 200.0, 2**22 + 1)
    ys = f(xs)
    oracle = (0.5 * (ys[0] + ys[-1]) + ys[1:-1].sum()) * (xs[1] - xs[0])
    got = integrate_1d(f, Interval(-200.0, 200.0))
    assert abs(got - oracle) < 1e-6 * abs(oracle)


def test_integral_linearity_property():
    rng = np.random.default_rng(11)
    iv = Interval(-3.0, 2.0)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, 2)
        c1, c2 = rng.uniform(0.5, 2.0, 2)
        f = lambda x: np.exp(-c1 * x * x) * np.cos(x)
        g = lambda x: np.sin(c2 * x) + 0.1 * x**3
        lhs = integrate_1d(lambda x: a * f(x) + b * g(x), iv)
        rhs = a * integrate_1d(f, iv) + b * integrate_1d(g, iv)
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: np.exp(-x * x) * np.cos(3.0 * x), -5.0, 4.0),
    (lambda x: 1.0 / (1.0 + x * x), -50.0, 50.0),
    (lambda x: np.sqrt(x) * np.log1p(x), 0.0, 2.0),
], ids=["gaussian-cosine", "lorentzian", "sqrt-endpoint"])
def test_integral_matches_scipy_quad(f, lo, hi):
    from scipy.integrate import quad  # independent oracle, tests only

    want, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert integrate_1d(f, Interval(lo, hi)) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_integral_constant_integrand_returning_a_scalar():
    assert integrate_1d(lambda x: 2.0, Interval(-1.0, 2.5)) == pytest.approx(7.0, rel=1e-14)


def test_integral_budget_exhaustion():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=16)
    with pytest.raises(NonConvergence):
        integrate_1d(lambda x: np.cos(5e4 * x), Interval(0.0, 1.0), spec)


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
