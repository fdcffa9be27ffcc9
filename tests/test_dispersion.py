from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from spdcsim import (
    DispersionModel,
    Interval,
    KnobSpec,
    PhaseMatchParams,
    PolynomialBranch,
    ZeroCurvature,
    check_condition,
    fluorescence_bandwidth,
    polar_params,
    solve_epm,
    taylor_gammas,
    validity_bound,
)
from conftest import near_matched_curvature_cases, planted_cases, vacuum_model


def quadratic_model(p, s, i, lo=10.0, hi=8000.0):
    return DispersionModel(k_p=PolynomialBranch(p), k_s=PolynomialBranch(s),
                           k_i=PolynomialBranch(i), validity=Interval(lo, hi))


# ---------------------------------------------------------------------------
# validity range
# ---------------------------------------------------------------------------

def test_validity_range_enforced():
    model = vacuum_model(Interval(500.0, 2500.0))
    with pytest.raises(ValueError, match="outside validity"):
        taylor_gammas(model, 900.0)  # half the pump below validity
    with pytest.raises(ValueError, match="outside validity"):
        check_condition(model, 2600.0, 0)  # pump above validity


# ---------------------------------------------------------------------------
# gammas and polar form
# ---------------------------------------------------------------------------

def test_taylor_gammas_vacuum_and_planted():
    assert taylor_gammas(vacuum_model(), 2000.0) == (0.0, 0.0)
    g = 8e-5 * math.cos(math.pi / 4)
    kp = PolynomialBranch([0.0, 5e-3])
    ks = PolynomialBranch([0.0, 5e-3 - g])
    ki = PolynomialBranch([0.0, 5e-3 + g])
    model = DispersionModel(k_p=kp, k_s=ks, k_i=ki, validity=Interval(10.0, 8000.0))
    gs, gi = taylor_gammas(model, 2000.0)
    assert gs == pytest.approx(5.65685424e-5, rel=1e-8)
    assert gi == pytest.approx(-5.65685424e-5, rel=1e-8)


def test_finite_difference_branch_matches_analytic_twin():
    coeffs = [10.0, 5e-3, 1e-6, 1e-10]
    analytic = PolynomialBranch(coeffs)
    model_a = DispersionModel(k_p=analytic, k_s=analytic, k_i=analytic,
                              validity=Interval(10.0, 8000.0))
    gs_a, _ = taylor_gammas(model_a, 2000.0)
    ref = analytic.derivative(2000.0, 1) - analytic.derivative(1000.0, 1)
    assert gs_a == pytest.approx(ref, rel=1e-12)


def test_polynomial_branch_rejects_negative_order():
    branch = PolynomialBranch([1.0, 2.0, 3.0])
    assert branch.derivative(2.0, 0) == 17.0
    with pytest.raises(ValueError, match="order must be >= 0"):
        branch.derivative(2.0, -1)
    with pytest.raises(ValueError, match="order must be >= 0"):
        branch.shifted(-1, 10.0)


def test_polar_params_examples():
    g = 8e-5
    gamma, theta = polar_params(g * math.cos(-math.pi / 4), g * math.sin(-math.pi / 4))
    assert gamma == pytest.approx(g, rel=1e-12)
    assert theta == pytest.approx(-math.pi / 4, abs=1e-12)
    assert polar_params(8e-5, 0.0) == (8e-5, 0.0)
    with pytest.raises(ValueError, match="gamma_s = gamma_i = 0; first-order model invalid"):
        polar_params(0.0, 0.0)


def test_polar_round_trip_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        gamma = rng.uniform(1e-6, 1e-3)
        theta = rng.uniform(-math.pi, math.pi)
        got_g, got_t = polar_params(gamma * math.cos(theta), gamma * math.sin(theta))
        assert abs(got_g - gamma) <= 1e-12 * gamma
        assert abs(got_t - theta) <= 1e-12


# ---------------------------------------------------------------------------
# matching conditions
# ---------------------------------------------------------------------------

def test_conditions_vacuum_all_orders():
    model = vacuum_model()
    for order in range(4):
        assert check_condition(model, 2000.0, order) == 0.0
    with pytest.raises(ValueError, match="order must be >= 0"):
        check_condition(model, 2000.0, -1)


def test_condition_orders_independent():
    # order-0 planted exactly, order-1 off by a known amount
    omega_p = 2000.0
    offset = 3.3e-5
    ks = PolynomialBranch([5.0, 5e-3])
    ki = PolynomialBranch([5.2, 5e-3])
    kp = PolynomialBranch([ks(omega_p / 2) + ki(omega_p / 2) - (5e-3 + offset) * omega_p,
                           5e-3 + offset])
    model = DispersionModel(k_p=kp, k_s=ks, k_i=ki, validity=Interval(10.0, 8000.0))
    assert abs(check_condition(model, omega_p, 0)) < 1e-12
    assert check_condition(model, omega_p, 1) == pytest.approx(offset, rel=1e-12)


def test_condition_order2_matched_curvatures():
    # second derivatives s'' = i'' = 2 p'' leave a zero order-2 residual
    c = 4e-9
    kp = PolynomialBranch([10.0, 5e-3, c / 2])
    ks = PolynomialBranch([10.0, 5e-3, c])
    ki = PolynomialBranch([10.0, 5e-3, c])
    model = DispersionModel(k_p=kp, k_s=ks, k_i=ki, validity=Interval(10.0, 8000.0))
    assert abs(check_condition(model, 2000.0, 2)) < 1e-12


def test_condition_higher_order_property():
    # planted to satisfy the 2^-n rule at orders 0..3 simultaneously
    rng = np.random.default_rng(9)
    for _ in range(5):
        omega_p = rng.uniform(1500.0, 2500.0)
        ks = PolynomialBranch(list(rng.uniform(-1, 1, 4) * [1.0, 1e-3, 1e-7, 1e-11]))
        ki = PolynomialBranch(list(rng.uniform(-1, 1, 4) * [1.0, 1e-3, 1e-7, 1e-11]))
        half = omega_p / 2
        # build k_p as the Taylor polynomial forced by the matching rule
        derivs = [(ks.derivative(half, n) if n else ks(half)) / 2**n
                  + (ki.derivative(half, n) if n else ki(half)) / 2**n
                  for n in range(4)]
        # convert derivative targets at omega_p into monomial coefficients
        kp_coeffs = np.zeros(4)
        for n in reversed(range(4)):
            fac = math.factorial(n)
            tail = sum(kp_coeffs[j] * math.factorial(j) / math.factorial(j - n)
                       * omega_p**(j - n) for j in range(n + 1, 4))
            kp_coeffs[n] = (derivs[n] - tail) / fac
        model = DispersionModel(k_p=PolynomialBranch(kp_coeffs), k_s=ks, k_i=ki,
                                validity=Interval(10.0, 8000.0))
        for order in range(4):
            assert abs(check_condition(model, omega_p, order)) < 1e-12


# ---------------------------------------------------------------------------
# joint solver
# ---------------------------------------------------------------------------

def test_solve_epm_planted_recovery():
    for model, omega_star, zeta_star, om_br, z_br in planted_cases(6):
        omega, zeta = solve_epm(model, om_br, z_br)
        assert abs(omega - omega_star) <= 1e-10 * omega_star
        assert abs(zeta - zeta_star) <= 1e-10 * max(abs(zeta_star), 1e-12)
        solved = model.with_zeta(zeta)
        assert abs(check_condition(solved, omega, 0)) <= 1e-10
        assert abs(check_condition(solved, omega, 1)) <= 1e-10


def test_joint_solutions_have_opposite_gammas():
    # at a joint solution gamma_s + gamma_i = 2 residual_order1 up to rounding
    # (docs/DERIVATION.md (1.4)), so a matched crystal's gammas have opposite signs
    for model, *_, om_br, z_br in planted_cases(20) + near_matched_curvature_cases(20):
        omega, zeta = solve_epm(model, om_br, z_br)
        solved = model.with_zeta(zeta)
        gs, gi = taylor_gammas(solved, omega)
        assert gs * gi < 0
        k1 = max(abs(b.derivative(w, 1)) for b, w in
                 ((solved.k_p, omega), (solved.k_s, omega / 2), (solved.k_i, omega / 2)))
        # measured at most 1 ulp of max |k'| over these 40 solutions
        assert abs(gs + gi - 2 * check_condition(solved, omega, 1)) <= 4 * math.ulp(k1)


def test_solve_epm_vacuum_degenerate_bracket():
    model = vacuum_model()
    omega, zeta = solve_epm(model, Interval(1500.0, 2500.0), Interval(-1.0, 1.0))
    assert omega == 1500.0  # every omega satisfies both conditions
    assert abs(check_condition(model, omega, 0)) == 0.0


def test_solve_epm_no_crossing():
    model = quadratic_model((1.0, 6e-3), (1.0, 5e-3), (1.0, 5e-3))
    with pytest.raises(ValueError, match="order-1 residual has no root"):
        solve_epm(model, Interval(1500.0, 2500.0), Interval(-1.0, 1.0))
    # the knob shifts k_p's constant, so every zeta has its order-1 root at
    # omega*, and a zeta bracket above zeta* holds no order-0 sign change
    model, _, zeta_star, omega_bracket, _ = planted_cases(2)[1]
    with pytest.raises(ValueError, match="no sign change over the zeta bracket"):
        solve_epm(model, omega_bracket, Interval(zeta_star + 1e-3, zeta_star + 2e-3))


def test_with_zeta_shifts_only_a_declared_knob():
    model = vacuum_model()
    assert model.with_zeta(0.3) is model  # no knob, nothing to shift
    # a knob past the branch's degree pads the branch with zeros
    shifted = replace(model, knob=KnobSpec(branch="s", order=3)).with_zeta(0.5)
    assert shifted.k_s.coeffs == model.k_s.coeffs + (0.0, 0.5)
    assert shifted.k_p is model.k_p and shifted.k_i is model.k_i


# ---------------------------------------------------------------------------
# bandwidth and validity bound
# ---------------------------------------------------------------------------

def test_fluorescence_bandwidth_value_and_scaling():
    params = PhaseMatchParams(gamma=8e-5, theta=-math.pi / 4, length=1e3)
    got = fluorescence_bandwidth(params)
    want = 4.0 * math.pi / (1e3 * 8e-5 * math.sqrt(2.0))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(111.072, abs=1e-3)
    doubled = fluorescence_bandwidth(
        PhaseMatchParams(gamma=8e-5, theta=-math.pi / 4, length=2e3))
    assert doubled == pytest.approx(got / 2.0, rel=1e-12)


def test_fluorescence_bandwidth_diverges_on_diagonal():
    params = PhaseMatchParams(gamma=8e-5, theta=math.pi / 4, length=1e3)
    with pytest.raises(ValueError, match="gamma_s = gamma_i; bandwidth diverges"):
        fluorescence_bandwidth(params)


def test_bandwidth_dip_width_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = PhaseMatchParams(gamma=rng.uniform(1e-5, 1e-3),
                                  theta=rng.uniform(-math.pi / 2, math.pi / 5),
                                  length=rng.uniform(1e2, 1e5))
        omega_f = fluorescence_bandwidth(params)
        assert 4.0 * math.pi / omega_f == pytest.approx(
            params.length * abs(params.gamma_s - params.gamma_i), rel=1e-12)


def test_validity_bound_planted_mu():
    # H = [[0, mu], [mu, 0]] has eigenvalues +-mu
    mu = 1e-7
    kp = PolynomialBranch([10.0, 5e-3, mu / 2])
    ks = PolynomialBranch([10.0, 5e-3, mu / 2])
    ki = PolynomialBranch([10.0, 5e-3, mu / 2])
    model = DispersionModel(k_p=kp, k_s=ks, k_i=ki, validity=Interval(10.0, 8000.0))
    report = validity_bound(model, 2000.0, 40.0)
    assert report.l_max == pytest.approx(8.0 * math.pi / (mu * 1600.0), rel=1e-12)
    assert report.l_max == pytest.approx(1.5708e5, rel=1e-4)


def test_validity_bound_diagonal_dominant():
    # k_p'' = 0 makes H diagonal with entries (-s'', -i'')
    kp = PolynomialBranch([10.0, 5e-3])
    ks = PolynomialBranch([10.0, 5e-3, -2e-7])
    ki = PolynomialBranch([10.0, 5e-3, 0.5e-7])
    model = DispersionModel(k_p=kp, k_s=ks, k_i=ki, validity=Interval(10.0, 8000.0))
    report = validity_bound(model, 2000.0, 40.0)
    assert report.l_max == pytest.approx(8.0 * math.pi / (4e-7 * 1600.0), rel=1e-12)


def test_validity_bound_matches_eigenvalues():
    # |mu| is the larger eigenvalue magnitude of H = [[kp'' - ks'', kp''],
    # [kp'', kp'' - ki'']] at degeneracy, for curvatures of either sign
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-1e-7, 1e-7, 3)
        model = quadratic_model((10.0, 5e-3, c[0]), (10.0, 5e-3, c[1]), (10.0, 5e-3, c[2]))
        kp2, ks2, ki2 = 2 * c
        hessian = [[kp2 - ks2, kp2], [kp2, kp2 - ki2]]
        mu = max(abs(np.linalg.eigvalsh(hessian)))
        l_max = validity_bound(model, 2000.0, 40.0).l_max
        assert l_max == pytest.approx(8.0 * math.pi / (mu * 1600.0), rel=1e-12)


def test_validity_bound_vacuum_zero_curvature():
    with pytest.raises(ZeroCurvature):
        validity_bound(vacuum_model(), 2000.0, 40.0)


@pytest.mark.parametrize("field", ["gamma", "theta", "length"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_match_params_reject_non_finite(field, bad):
    values = dict(gamma=8e-5, theta=0.0, length=1e3)
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        PhaseMatchParams(**values)


def test_phase_match_params_invariants():
    with pytest.raises(ValueError):
        PhaseMatchParams(gamma=0.0, theta=0.0, length=1e3)
    with pytest.raises(ValueError):
        PhaseMatchParams(gamma=8e-5, theta=0.0, length=0.0)
    gamma, theta = polar_params(5.65685424949238e-5, -5.65685424949238e-5)
    params = PhaseMatchParams(gamma=gamma, theta=theta, length=1e3)
    assert params.theta == pytest.approx(-math.pi / 4, abs=1e-12)
    assert params.gamma == pytest.approx(8e-5, rel=1e-10)
