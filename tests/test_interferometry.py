from __future__ import annotations

import math
import re

import numpy as np
import pytest

from spdcsim import (
    DegenerateDip,
    NonConvergence,
    PhaseMatchParams,
    PumpSpectrum,
    QuadratureSpec,
    TraceKind,
    closed_form_params,
    erf,
    fluorescence_bandwidth,
    fringe_envelope_terms,
    hom_rate_closed,
    hom_trace_integral,
    mz_rate_closed,
    mz_trace_integral,
    phi_L,
    sweep_visibility,
    v_hom,
    v_mz,
)
from spdcsim.interferometry import (
    _RIDGE,
    _delay_blocks,
    _engines,
    _RateEngine,
    _sinc_blocks,
    delay_span,
)

OMEGA_P = 2000.0
GAMMA = 8e-5
PUMP = PumpSpectrum(omega_p=OMEGA_P, bandwidth=40.0)


def make_params(theta: float, length: float = 1e3) -> PhaseMatchParams:
    return PhaseMatchParams(omega_p=OMEGA_P, gamma=GAMMA, theta=theta, length=length)


EPM = make_params(-math.pi / 4)
CONV = make_params(0.0)  # gamma L = 0.08 ps, xi = 1.25


# ---------------------------------------------------------------------------
# closed-form parameters
# ---------------------------------------------------------------------------

def test_closed_form_params_values():
    cfp = closed_form_params(CONV, PUMP)
    assert cfp.xi == pytest.approx(1.25, rel=1e-12)
    assert cfp.tau_theta == pytest.approx(0.04, rel=1e-12)
    cfp_epm = closed_form_params(EPM, PUMP)
    assert math.isinf(cfp_epm.xi)
    assert cfp_epm.tau_theta == pytest.approx(0.0565685424949238, rel=1e-10)
    cfp_deg = closed_form_params(make_params(math.pi / 4), PUMP)
    assert cfp_deg.tau_theta == pytest.approx(0.0, abs=1e-16)


# ---------------------------------------------------------------------------
# dip closed form
# ---------------------------------------------------------------------------

def test_hom_closed_outside_dip_is_one():
    cfp = closed_form_params(CONV, PUMP)
    for tau in (0.04, 0.05, 1.0, -2.0):
        assert hom_rate_closed(cfp, tau) == 1.0


def test_hom_closed_triangular_limit():
    cfp = closed_form_params(EPM, PUMP)
    assert hom_rate_closed(cfp, 0.0) == 0.0
    assert hom_rate_closed(cfp, 0.5 * cfp.tau_theta) == pytest.approx(0.5, rel=1e-12)
    assert hom_rate_closed(cfp, -0.25 * cfp.tau_theta) == pytest.approx(0.25, rel=1e-12)


def test_hom_closed_finite_xi_depth():
    cfp = closed_form_params(CONV, PUMP)
    want = 1.0 - 0.5 * math.sqrt(math.pi) * 1.25 * erf(0.8)
    assert hom_rate_closed(cfp, 0.0) == pytest.approx(want, rel=1e-14)
    assert hom_rate_closed(cfp, 0.0) == pytest.approx(0.17787, abs=1e-4)


def test_hom_closed_degenerate_ray():
    cfp = closed_form_params(make_params(math.pi / 4), PUMP)
    with pytest.raises(DegenerateDip):
        hom_rate_closed(cfp, 0.0)


def test_hom_dip_base_width():
    cfp = closed_form_params(EPM, PUMP)
    assert hom_rate_closed(cfp, cfp.tau_theta * (1.0 + 1e-6)) == 1.0
    assert hom_rate_closed(cfp, cfp.tau_theta * (1.0 - 1e-3)) < 1.0
    omega_f = fluorescence_bandwidth(EPM)
    assert 2.0 * cfp.tau_theta == pytest.approx(4.0 * math.pi / omega_f, rel=1e-9)


# ---------------------------------------------------------------------------
# fringe closed form
# ---------------------------------------------------------------------------

def test_mz_closed_peak_and_first_minimum():
    cfp = closed_form_params(EPM, PUMP)
    assert mz_rate_closed(cfp, 0.0) == 2.0
    tau = math.pi / OMEGA_P
    want = 1.0 - math.exp(-(PUMP.bandwidth * tau / 2.0) ** 2)
    got = mz_rate_closed(cfp, tau)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(9.8648e-4, abs=1e-8)


def test_mz_closed_reduces_to_gaussian_fringe_on_matched_ray():
    cfp = closed_form_params(EPM, PUMP)
    taus = np.linspace(-0.2, 0.2, 4001)
    worst = max(
        abs(mz_rate_closed(cfp, t)
            - (1.0 + math.exp(-(PUMP.bandwidth * t / 2.0) ** 2) * math.cos(OMEGA_P * t)))
        for t in taus)
    assert worst <= 1e-10


def test_fringe_envelope_terms_anchors():
    for params in (CONV, make_params(math.pi / 5, length=2e4), make_params(-math.pi / 6, length=2e4)):
        cfp = closed_form_params(params, PUMP)
        f1, f2 = fringe_envelope_terms(cfp, 0.0)
        assert f1 + f2 == pytest.approx(1.0, abs=1e-12)  # pins the zero-delay peak at 2
        f1_far, f2_far = fringe_envelope_terms(cfp, 10.0)
        assert abs(f1_far) < 1e-12 and f2_far == 0.0
    cfp = closed_form_params(EPM, PUMP)
    for t in np.linspace(-0.3, 0.3, 101):
        assert fringe_envelope_terms(cfp, t)[1] == 0.0


def test_mz_closed_fringe_period():
    cfp = closed_form_params(EPM, PUMP)
    period = 2.0 * math.pi / OMEGA_P
    assert period == pytest.approx(3.1416e-3, abs=1e-7)
    t0 = 17.0 * period
    for k in range(3):
        lo = mz_rate_closed(cfp, t0 + (k + 0.5) * period)
        hi = mz_rate_closed(cfp, t0 + k * period)
        assert hi > 1.0 > lo


# The fringe closed forms as they read when they took the pump and the
# crystal beside the ClosedFormParams, kept here to pin the one-argument
# versions bit for bit.
def _fringe_terms_four_args(cfp, pump, params, tau):
    x = 0.5 * pump.bandwidth * tau
    if math.isinf(cfp.xi):
        return math.exp(-x * x), 0.0
    xi = cfp.xi
    f1 = 0.5 * math.exp(-x * x) + (math.sqrt(math.pi) * xi / 8.0) * (
        erf(1.0 / xi - x) + erf(1.0 / xi + x))
    if cfp.tau_theta <= 0:
        f2 = 0.5 - (math.sqrt(math.pi) * xi / 4.0) * erf(1.0 / xi) if tau == 0.0 else 0.0
        return f1, f2
    r = abs(tau) / cfp.tau_theta
    if r >= 1.0:
        return f1, 0.0
    plus = params.gamma_s + params.gamma_i
    minus = params.gamma_s - params.gamma_i
    q2 = (plus / minus) ** 2
    f2 = 0.5 * (1.0 - r) * math.exp(-x * x * q2) - (math.sqrt(math.pi) * xi / 4.0) * erf(
        (1.0 - r) / xi)
    return f1, f2


def _mz_rate_four_args(cfp, pump, params, tau):
    f1, f2 = _fringe_terms_four_args(cfp, pump, params, tau)
    return 1.0 + math.cos(pump.omega_p * tau) * f1 + f2


def _v_mz_four_args(cfp, pump, params):
    f1, f2 = _fringe_terms_four_args(cfp, pump, params, math.pi / pump.omega_p)
    d = f1 - f2
    return (1.0 + d) / (3.0 - d)


@pytest.mark.parametrize("params, pump", [
    (EPM, PUMP),                                          # xi = inf ray
    (make_params(math.pi / 4), PUMP),                     # tau_theta = 0 ray
    (CONV, PUMP),
    (make_params(-math.pi / 6, length=2e4), PUMP),        # the benchmark's closed setting
    (make_params(math.pi / 5, length=2e4), PumpSpectrum(omega_p=2100.0, bandwidth=17.0)),
], ids=["xi-inf", "tau-theta-zero", "conv", "neg-pi-6", "pos-pi-5"])
def test_fringe_closed_forms_match_four_argument_arithmetic_bitwise(params, pump):
    cfp = closed_form_params(params, pump)
    edge = cfp.tau_theta
    taus = [0.0, 1e-7, -1e-7, 0.5 * edge, -0.3 * edge, edge * (1.0 - 1e-12), edge, -edge,
            1.5 * edge, math.pi / pump.omega_p, *np.linspace(-0.2, 0.2, 401)]
    branches = {"inside": 0, "outside": 0}
    for tau in map(float, taus):
        branches["inside" if abs(tau) < edge else "outside"] += 1
        assert fringe_envelope_terms(cfp, tau) == _fringe_terms_four_args(cfp, pump, params, tau)
        assert mz_rate_closed(cfp, tau) == _mz_rate_four_args(cfp, pump, params, tau)
    assert v_mz(cfp) == _v_mz_four_args(cfp, pump, params)
    assert branches["outside"] > 0 and (edge == 0.0 or branches["inside"] > 0)


# ---------------------------------------------------------------------------
# visibilities
# ---------------------------------------------------------------------------

def test_v_hom_values():
    assert v_hom(closed_form_params(EPM, PUMP)) == 1.0
    assert v_hom(closed_form_params(CONV, PUMP)) == pytest.approx(0.69798, abs=1e-4)
    tiny_xi = closed_form_params(
        CONV, PumpSpectrum(omega_p=OMEGA_P, bandwidth=4e5))
    assert v_hom(tiny_xi) < 1e-3
    with pytest.raises(DegenerateDip):
        v_hom(closed_form_params(make_params(math.pi / 4), PUMP))


def test_v_mz_values():
    got = v_mz(closed_form_params(EPM, PUMP))
    p_min = 1.0 - math.exp(-(PUMP.bandwidth * math.pi / OMEGA_P / 2.0) ** 2)
    assert got == pytest.approx((2.0 - p_min) / (2.0 + p_min), rel=1e-12)
    assert got == pytest.approx(0.99901, abs=1e-4)
    # vanishing envelope terms pin the fringe floor at 1/3
    assert (1.0 + 0.0) / (3.0 - 0.0) == pytest.approx(1.0 / 3.0)


def test_v_mz_lower_bound_on_sweep():
    lengths = np.linspace(1e3, 5e4, 40)
    for theta in (-math.pi / 4, -math.pi / 5, -math.pi / 6, 0.0, math.pi / 5):
        for length in lengths:
            params = make_params(theta, length=float(length))
            v = v_mz(closed_form_params(params, PUMP))
            assert 1.0 / 3.0 - 1e-9 <= v <= 1.0


def test_sweep_visibility_shapes_and_flat_matched_ray():
    vs = sweep_visibility(TraceKind.HOM, CONV, PUMP, [-math.pi / 4, 0.0],
                          np.linspace(1.0, 120.0, 25))
    assert vs.shape == (2, 25)
    assert np.all(vs[0] == 1.0)
    assert np.all(np.diff(vs[1]) < 0.0)
    vs = sweep_visibility(TraceKind.MZ, CONV, PUMP, [0.0], np.linspace(1e3, 5e4, 25))
    assert vs.shape == (1, 25)
    assert np.all(np.diff(vs[0]) < 0.0)
    # far beyond the sweep the curve settles within a hair of 1/3
    far = sweep_visibility(TraceKind.MZ, CONV, PUMP, [0.0], np.linspace(1e8, 1e9, 2))
    assert far[0, -1] == pytest.approx(1.0 / 3.0, abs=1e-3)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def test_quadrature_dip_bottom_and_baseline():
    taus = np.array([0.0, 0.25])
    got = hom_trace_integral(EPM, PUMP, taus)
    assert abs(got[0]) <= 1e-6
    assert got[1] == pytest.approx(1.0, abs=1e-3)


def test_quadrature_matches_closed_dip():
    taus = np.linspace(-0.12, 0.12, 25)
    got = hom_trace_integral(EPM, PUMP, taus, tau_max=0.12)
    cfp = closed_form_params(EPM, PUMP)
    want = np.array([hom_rate_closed(cfp, t) for t in taus])
    assert np.max(np.abs(got - want)) <= 1e-3


def test_quadrature_matches_closed_fringe():
    taus = np.linspace(-0.12, 0.12, 25)
    got = mz_trace_integral(EPM, PUMP, taus, tau_max=0.12)
    cfp = closed_form_params(EPM, PUMP)
    want = np.array([mz_rate_closed(cfp, t) for t in taus])
    assert np.max(np.abs(got - want)) <= 1e-10  # exact cancellation on this ray


def test_quadrature_single_point_wrappers():
    def at(tau):
        return hom_trace_integral(EPM, PUMP, np.array([tau]), tau_max=0.12)[0]

    assert at(0.0) == pytest.approx(0.0, abs=1e-9)
    cfp = closed_form_params(EPM, PUMP)
    tau = 0.03
    assert at(tau) == pytest.approx(hom_rate_closed(cfp, tau), abs=1e-3)


def test_quadrature_even_in_delay():
    taus = np.array([-0.09, -0.02, 0.02, 0.09])
    got = hom_trace_integral(EPM, PUMP, taus, tau_max=0.12)
    assert got[0] == pytest.approx(got[3], abs=1e-12)
    assert got[1] == pytest.approx(got[2], abs=1e-12)


def test_quadrature_pump_bandwidth_insensitive_on_matched_ray():
    taus = np.linspace(-0.1, 0.1, 11)
    traces = [hom_trace_integral(EPM, PumpSpectrum(omega_p=OMEGA_P, bandwidth=bw),
                                 taus, tau_max=0.12)
              for bw in (4.0, 40.0, 120.0)]
    assert np.max(np.abs(traces[0] - traces[1])) <= 1e-6
    assert np.max(np.abs(traces[1] - traces[2])) <= 1e-6


def test_mz_closed_crystal_independent_on_matched_ray():
    taus = np.linspace(-0.1, 0.1, 201)
    values = []
    for length in (1e3, 1e4, 5e4):
        params = make_params(-math.pi / 4, length=length)
        cfp = closed_form_params(params, PUMP)
        values.append(np.array([mz_rate_closed(cfp, t) for t in taus]))
    assert np.max(np.abs(values[0] - values[1])) <= 1e-6
    assert np.max(np.abs(values[1] - values[2])) <= 1e-6


def test_trace_ranges():
    span = delay_span(EPM, PUMP)
    taus = np.linspace(-span, span, 61)
    hom = hom_trace_integral(EPM, PUMP, taus)
    mz = mz_trace_integral(EPM, PUMP, taus)
    assert np.all(hom >= -1e-9) and np.all(hom <= 1.0 + 1e-3)
    assert np.all(mz >= -1e-9) and np.all(mz <= 2.0 + 1e-9)


def test_degenerate_ray_quadrature_raises():
    with pytest.raises(DegenerateDip):
        hom_trace_integral(make_params(math.pi / 4), PUMP, np.array([0.0]))


def _unfolded_profiles(eng, params):
    """Reference reduction without the reflection fold: phi_L at a u + b v
    and a u - b v over every v node, in v chunks, divided by L so the
    profiles share the engine's normalization."""
    a = 0.5 * (params.gamma_s + params.gamma_i)
    b = 0.5 * (params.gamma_s - params.gamma_i)
    L = params.length
    q_u, r_u = np.zeros_like(eng.un), np.zeros_like(eng.un)
    g2_v, g3_v = np.empty_like(eng.vn), np.empty_like(eng.vn)
    for lo in range(0, len(eng.vn), 2000):
        v, vw = eng.vn[lo:lo + 2000], eng.vw[lo:lo + 2000]
        p1 = phi_L(a * eng.un[:, None] + b * v[None, :], L) / L
        p2 = phi_L(a * eng.un[:, None] - b * v[None, :], L) / L
        ssq, cross = p1 * p1 + p2 * p2, p1 * p2
        q_u += ssq @ vw
        r_u += cross @ vw
        g2_v[lo:lo + 2000] = eng.wu @ ssq
        g3_v[lo:lo + 2000] = eng.wu @ cross
    return q_u, r_u, g2_v, g3_v


def _unfolded_traces(eng, profiles, omega_p, taus):
    q_u, r_u, g2_v, g3_v = profiles
    mass = eng.wu @ q_u
    hom, mz = [], []
    for tau in taus:
        cos_u = np.cos((eng.un + omega_p) * tau)
        cos_v = np.cos(eng.vn * tau)
        a1, b1 = (eng.wu * q_u) @ cos_u, (eng.wu * r_u) @ cos_u
        a2, b2 = (eng.vw * g2_v) @ cos_v, (eng.vw * g3_v) @ cos_v
        hom.append(1.0 - 2.0 * b2 / mass)
        mz.append((0.25 * mass + 0.125 * (a1 + a2) + 0.25 * (b1 - b2)) / (0.25 * mass))
    return np.array(hom), np.array(mz)


def test_reflection_fold_matches_unfolded_reduction():
    params = make_params(math.pi / 5)  # short crystal, off both special rays
    taus = np.linspace(-0.02, 0.02, 9)
    eng = _RateEngine(params, PUMP, 0.02, "fine", 2**15)
    assert np.array_equal(eng.un, -eng.un[::-1]) and np.array_equal(eng.wu, eng.wu[::-1])
    assert np.array_equal(eng.vn, -eng.vn[::-1]) and np.array_equal(eng.vw, eng.vw[::-1])
    ref = _unfolded_profiles(eng, params)
    half = len(eng.vn) // 2
    pairs = [(eng.q_u, ref[0]), (eng.r_u, ref[1]),
             (eng.g2_v, ref[2][half:]), (eng.g3_v, ref[3][half:])]
    pairs += zip((eng.hom(taus), eng.mz(taus)), _unfolded_traces(eng, ref, PUMP.omega_p, taus))
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _kernel(au, bv, chunk):
    """Every block of _sinc_blocks, copied out of its reused buffer."""
    return np.concatenate([p1.copy() for _, p1, _ in _sinc_blocks(au, bv, chunk)], axis=1)


# an ascending axis whose nodes lie more than 2 _RIDGE apart, so a row on the
# ridge through one node has that node alone within _RIDGE of it
_SPREAD_BV = np.array([-999.75, -310.5, -17.25, -3.0, 0.0, 2.5, 41.125, 640.0, 998.5])


@pytest.mark.parametrize("chunk", [1, 2, len(_SPREAD_BV)])
def test_sinc_kernel_matches_np_sinc_on_and_near_the_ridge(chunk):
    t = _RIDGE
    offsets = [0.0, t, -t, t * (1 + 1e-12), t * (1 - 1e-12), -t * (1 + 1e-12),
               -t * (1 - 1e-12), 1e-9, -1e-9]
    # rows on the ridge of every node, at each offset from it, plus far rows of both signs
    au = np.concatenate(([-b + d for b in _SPREAD_BV for d in offsets],
                         np.linspace(-1e3, 1e3, 41)))
    y = au[:, None] + _SPREAD_BV[None, :]
    assert np.count_nonzero(y == 0.0) >= len(_SPREAD_BV)
    want = np.sinc(y / np.pi)
    got = _kernel(au, _SPREAD_BV, chunk)
    assert np.all(got[y == 0.0] == 1.0)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_sinc_kernel_matches_np_sinc_on_dense_axes():
    rng = np.random.default_rng(7)
    au = np.concatenate((rng.uniform(-1e3, 1e3, 300), -rng.uniform(0, 1e3, 50)))
    bv = np.sort(np.concatenate((rng.uniform(-1e3, 1e3, 700), -au[-50:])))
    want = np.sinc(np.add.outer(au, bv) / np.pi)
    assert np.max(np.abs(_kernel(au, bv, 64) - want)) <= 1e-15


def _sinc_reference_profiles(eng, params):
    """Reference build: one np.sinc per node pair on the engine's own nodes,
    folded like the engine (p2 is p1's row reversal, v < 0 by symmetry)."""
    a = 0.5 * (params.gamma_s + params.gamma_i)
    b = 0.5 * (params.gamma_s - params.gamma_i)
    L = params.length
    au = (a * L / (2.0 * math.pi)) * eng.un
    vp, vwp = eng._vp, eng.vw[len(eng.vn) // 2:]
    s_u, c_u = np.zeros_like(eng.un), np.zeros_like(eng.un)
    s_v, c_v = np.empty_like(vp), np.empty_like(vp)
    step = max(1, 2**20 // len(eng.un))
    for lo in range(0, len(vp), step):
        p1 = np.sinc(au[:, None] + (b * L / (2.0 * math.pi)) * vp[None, lo:lo + step])
        sq, cross = p1 * p1, p1 * p1[::-1]
        s_u += sq @ vwp[lo:lo + step]
        c_u += cross @ vwp[lo:lo + step]
        s_v[lo:lo + step] = eng.wu @ sq
        c_v[lo:lo + step] = eng.wu @ cross
    q_u = 2.0 * (s_u + s_u[::-1])
    return q_u, 2.0 * c_u, 2.0 * s_v, c_v, eng.wu @ q_u


@pytest.mark.parametrize("theta, length", [
    (-math.pi / 4, 1e3), (math.pi / 5, 2e4), (-math.pi / 6, 2e4), (2 * math.pi / 3, 1e3),
], ids=["epm", "conv_pos", "conv_neg", "b_negative"])
def test_engine_profiles_match_np_sinc_build(theta, length):
    params = make_params(theta, length)
    eng = _RateEngine(params, PUMP, delay_span(params, PUMP), "coarse", 2**15)
    ref = _sinc_reference_profiles(eng, params)
    for got, want in zip((eng.q_u, eng.r_u, eng.g2_v, eng.g3_v, eng.mass), ref):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _direct_traces(eng, taus):
    """Reference evaluation: one np.cos per node per delay, reduced with
    plain dot products on the engine's own profiles."""
    hom, mz = [], []
    for tau in taus:
        cos_u = np.cos((eng.un + eng.omega_p) * tau)
        cos_v = np.cos(eng._vp * tau)
        a1, b1 = (eng.wu * eng.q_u) @ cos_u, (eng.wu * eng.r_u) @ cos_u
        a2, b2 = eng._w2 @ cos_v, eng._w3 @ cos_v
        hom.append(1.0 - 2.0 * b2 / eng.mass)
        mz.append((0.25 * eng.mass + 0.125 * (a1 + a2) + 0.25 * (b1 - b2)) / (0.25 * eng.mass))
    return np.array(hom), np.array(mz)


@pytest.fixture(scope="module", params=[-math.pi / 4, math.pi / 5], ids=["epm", "pi_5"])
def coarse_engine(request):
    return _RateEngine(make_params(request.param), PUMP, 0.05, "coarse", 2**15)


def test_blocked_evaluation_matches_direct_on_a_uniform_grid(coarse_engine):
    taus = np.linspace(-0.05, 0.05, 2001)
    assert len(_delay_blocks(taus)[1]) == 45  # the blocked path, not K = 1
    for got, want in zip((coarse_engine.hom(taus), coarse_engine.mz(taus)),
                         _direct_traces(coarse_engine, taus)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_blocked_evaluation_is_even_on_a_symmetric_grid(coarse_engine):
    taus = np.linspace(-0.05, 0.05, 2001)
    for got in (coarse_engine.hom(taus), coarse_engine.mz(taus)):
        assert np.max(np.abs(got - got[::-1])) <= 1e-12


@pytest.mark.parametrize("taus", [
    np.linspace(-0.05, 0.05, 41) + np.where(np.arange(41) == 17, 1e-9, 0.0),
    np.array([-0.04, -0.011, 0.0, 0.003, 0.027, 0.05]),
    np.empty(0),
    np.array([0.013]),
    np.array([-0.01, 0.03]),
], ids=["one_delay_off_a_linspace", "irregular", "n0", "n1", "n2"])
def test_direct_evaluation_off_uniform_grids(coarse_engine, taus):
    assert len(_delay_blocks(taus)[1]) == 1
    for got, want in zip((coarse_engine.hom(taus), coarse_engine.mz(taus)),
                         _direct_traces(coarse_engine, taus)):
        assert got.shape == want.shape
        if want.size:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("budget, axis", [(4, "u axis (fine build)"), (60, "v axis (fine build)")])
def test_panel_budget_error_names_axis(budget, axis):
    with pytest.raises(NonConvergence, match=re.escape(axis)):
        hom_trace_integral(EPM, PUMP, np.array([0.0]), spec=QuadratureSpec(max_subdivisions=budget))


def test_hom_and_mz_traces_share_one_engine_build():
    params = make_params(math.pi / 5)
    taus = np.linspace(-0.02, 0.02, 5)
    _engines.cache_clear()
    hom = hom_trace_integral(params, PUMP, taus, tau_max=0.02)
    hits = _engines.cache_info().hits
    mz = mz_trace_integral(params, PUMP, taus, tau_max=0.02)
    assert _engines.cache_info().hits == hits + 1
    assert _engines.cache_info().misses == 1
    # a cold build gives bitwise the values the warm engine gave
    _engines.cache_clear()
    assert np.array_equal(mz_trace_integral(params, PUMP, taus, tau_max=0.02), mz)
    assert np.array_equal(hom_trace_integral(params, PUMP, taus, tau_max=0.02), hom)


def test_trace_panels_are_sized_from_the_delays_alone(monkeypatch):
    params = make_params(math.pi / 5, length=2e4)
    span = delay_span(params, PUMP)
    taus = np.linspace(-span, span, 201)

    def closed_form(*args):
        raise AssertionError("the quadrature route reached closed-form code")

    # the oracle must not lean on the closed forms, not even for its reach
    monkeypatch.setattr("spdcsim.interferometry.closed_form_params", closed_form)
    monkeypatch.setattr("spdcsim.interferometry.delay_span", closed_form)
    for trace in (hom_trace_integral, mz_trace_integral):
        values = trace(params, PUMP, taus)
        assert np.array_equal(values, trace(params, PUMP, taus, tau_max=span))
        # a tau_max below the delays widens nothing and under-resolves nothing
        assert np.array_equal(values, trace(params, PUMP, taus, tau_max=span / 10))

