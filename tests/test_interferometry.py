from __future__ import annotations

import math
import re
from math import erf

import numpy as np
import pytest

from spdcsim import (
    NonConvergence,
    PhaseMatchParams,
    PumpSpectrum,
    QuadratureSpec,
    TraceKind,
    closed_form_params,
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
from spdcsim import interferometry
from spdcsim.cli import VALIDATION_SETS
from spdcsim.interferometry import (
    _BLOCK_BYTES,
    _DELAY_CHUNK,
    _MIN_COLUMNS,
    _RIDGE,
    _V_CHECK,
    _V_REACH,
    _cos_sums,
    _fft_length,
    _line_spectra,
    _sinc_blocks,
    _spectra_pair,
    delay_span,
)
from conftest import node_counts, traced_peak

OMEGA_P = 2000.0
GAMMA = 8e-5
PUMP = PumpSpectrum(omega_p=OMEGA_P, bandwidth=40.0)


def make_params(theta: float, length: float = 1e3) -> PhaseMatchParams:
    return PhaseMatchParams(gamma=GAMMA, theta=theta, length=length)


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
    for tau in (0.0, np.zeros(2 * _DELAY_CHUNK + 1)):
        with pytest.raises(ValueError, match="tau_theta = 0: dip has zero width"):
            hom_rate_closed(cfp, tau)


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


@pytest.mark.parametrize("d", [1e-3, 1e-5, 1e-8, 1e-10, 2e-12])
def test_closed_forms_meet_their_xi_limit_next_to_the_matched_ray(d):
    # docs/DERIVATION.md (2.2)-(2.4): at theta = -pi/4 + d the closed forms
    # are within 0.34 / xi^2 of their xi -> inf limits, the triangle r,
    # exp(-x^2) and 0, and past _XI_LIMIT they are the limits; evaluated in
    # full there, the cancelling F1 bracket would be off by ~3.5e-17 xi
    params = make_params(-math.pi / 4 + d)
    cfp = closed_form_params(params, PUMP)
    xi = 4.0 / (PUMP.bandwidth * GAMMA * params.length
                * abs(math.cos(params.theta) + math.sin(params.theta)))
    tau = np.linspace(-1.2, 1.2, 2401) * cfp.tau_theta
    x = 0.5 * PUMP.bandwidth * tau
    r = np.minimum(np.abs(tau) / cfp.tau_theta, 1.0)
    bound = 0.5 / xi**2 + 1e-11
    f1, f2 = fringe_envelope_terms(cfp, tau)
    assert np.max(np.abs(hom_rate_closed(cfp, tau) - r)) <= bound
    assert np.max(np.abs(f1 - np.exp(-x * x))) <= bound
    assert np.max(np.abs(f2)) <= bound


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


def _hom_rate_scalar(cfp, tau):
    # the dip closed form as it read when it took one delay per call
    r = abs(tau) / cfp.tau_theta
    if r >= 1.0:
        return 1.0
    if math.isinf(cfp.xi):
        return r
    return 1.0 - 0.5 * math.sqrt(math.pi) * cfp.xi * erf((1.0 - r) / cfp.xi)


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
    # the whole delay list as one array, element by element
    arr = np.array(taus, dtype=float)
    f1, f2 = fringe_envelope_terms(cfp, arr)
    mz = mz_rate_closed(cfp, arr)
    assert f1.shape == f2.shape == mz.shape == arr.shape
    for k, tau in enumerate(map(float, taus)):
        assert (f1[k], f2[k]) == _fringe_terms_four_args(cfp, pump, params, tau)
        assert mz[k] == _mz_rate_four_args(cfp, pump, params, tau)
    if edge > 0.0:
        hom = hom_rate_closed(cfp, arr)
        assert hom.shape == arr.shape
        assert [float(h) for h in hom] == [_hom_rate_scalar(cfp, tau) for tau in map(float, taus)]
    # a scalar delay still gives one float, equal to the scalar arithmetic's
    tau = 0.3 * edge
    got = mz_rate_closed(cfp, tau)
    assert isinstance(got, float) and got == _mz_rate_four_args(cfp, pump, params, tau)
    if edge > 0.0:
        got = hom_rate_closed(cfp, tau)
        assert isinstance(got, float) and got == _hom_rate_scalar(cfp, tau)


LIBM_BREAKS_CONSTANTS = ("this libm breaks the exact constants the closed forms fill in "
                         "without calling it (interferometry._ERF_SATURATED, _EXP_UNDERFLOWED)")


def test_libm_returns_the_constants_the_closed_forms_fill_in():
    # facts about the math library, not about math: erf only approaches +-1
    # and exp(-t) only approaches 0, but libm rounds them there exactly
    saturated, underflowed = interferometry._ERF_SATURATED, interferometry._EXP_UNDERFLOWED
    assert (math.erf(saturated), math.erf(-saturated)) == (1.0, -1.0), LIBM_BREAKS_CONSTANTS
    xs = np.linspace(saturated, 40.0, 200_001).tolist() + [1e300, math.inf]
    assert {math.erf(x) for x in xs} == {1.0}, LIBM_BREAKS_CONSTANTS
    assert {math.erf(-x) for x in xs} == {-1.0}, LIBM_BREAKS_CONSTANTS
    ts = np.linspace(underflowed, 2e3, 20_001).tolist() + [1e300, math.inf]
    assert {math.exp(-t) for t in ts} == {0.0}, LIBM_BREAKS_CONSTANTS
    # erf(+-0) = +-0 is the C standard's, and the closed forms keep its sign
    assert [math.copysign(1.0, math.erf(z)) for z in (0.0, -0.0)] == [1.0, -1.0]


def _per_element(fn):
    return lambda x: np.asarray(np.frompyfunc(fn, 1, 1)(x), dtype=float)


_ERF, _EXP, _COS = map(_per_element, (math.erf, math.exp, math.cos))


def _closed_forms_per_element(cfp, tau):
    """(hom, F1, F2, mz) with one libm call per element and no constant
    filled in: the closed forms' arithmetic as it read before they skipped
    calls.  hom is None at tau_theta = 0."""
    sqrt_pi = math.sqrt(math.pi)
    r = np.minimum(np.abs(tau), cfp.tau_theta) / cfp.tau_theta if cfp.tau_theta > 0 else None
    hom = None if r is None else (
        r if math.isinf(cfp.xi) else 1.0 - 0.5 * sqrt_pi * cfp.xi * _ERF((1.0 - r) / cfp.xi))
    with np.errstate(over="ignore"):
        x = 0.5 * cfp.bandwidth * tau
        xx = np.minimum(x * x, np.finfo(float).max)
        q_decay = -xx * cfp.q2
    gauss = _EXP(-xx)
    if math.isinf(cfp.xi):
        f1, f2 = gauss, np.zeros_like(gauss)
    else:
        xi = cfp.xi
        f1 = 0.5 * gauss + (sqrt_pi * xi / 8.0) * (_ERF(1.0 / xi - x) + _ERF(1.0 / xi + x))
        if r is None:
            r = np.where(tau == 0.0, 0.0, 1.0)
        f2 = 0.5 * (1.0 - r) * _EXP(q_decay) - (sqrt_pi * xi / 4.0) * _ERF((1.0 - r) / xi)
    return hom, f1, f2, 1.0 + _COS(cfp.omega_p * tau) * f1 + f2


def _masked_settings():
    rng = np.random.default_rng(20240527)
    for _ in range(100):
        params = make_params(rng.uniform(-math.pi, math.pi), 10.0 ** rng.uniform(1.0, 5.0))
        yield params, PumpSpectrum(OMEGA_P, 10.0 ** rng.uniform(0.0, 2.5))
    yield EPM, PUMP                                        # xi = inf
    yield make_params(math.pi / 4), PUMP                   # tau_theta = 0


def test_masked_closed_forms_equal_one_libm_call_per_element_bitwise():
    cfps = [(closed_form_params(params, pump), delay_span(params, pump))
            for params, pump in _masked_settings()]
    # q2 = 0 off the xi = inf ray, which closed_form_params never gives
    cfps.append((interferometry.ClosedFormParams(0.4, 0.05, 0.0, 40.0, OMEGA_P), 0.5))
    assert {math.isinf(c.xi) for c, _ in cfps} == {True, False}
    assert min(c.tau_theta for c, _ in cfps) == 0.0 and min(c.q2 for c, _ in cfps) == 0.0
    skipped = {"erf": 0, "exp": 0, "cos": 0}
    for cfp, span in cfps:
        taus = np.linspace(-3.0, 3.0, 2001) * span
        hom, f1, f2, mz = _closed_forms_per_element(cfp, taus)
        got = [hom_rate_closed(cfp, taus) if hom is not None else None,
               *fringe_envelope_terms(cfp, taus), mz_rate_closed(cfp, taus)]
        for name, want, value in zip(("hom", "F1", "F2", "mz"), (hom, f1, f2, mz), got):
            assert (value is None) == (want is None), name
            if want is not None:
                assert value.tobytes() == want.tobytes(), (name, cfp)
        # a scalar delay equals its array entry: at the ends, in the middle and inside the dip
        for k in (0, 600, 1000, 1000 + int(200 * cfp.tau_theta / span), 2000):
            tau = float(taus[k])
            assert np.float64(mz_rate_closed(cfp, tau)).tobytes() == mz[k].tobytes(), (cfp, tau)
            if hom is not None:
                assert np.float64(hom_rate_closed(cfp, tau)).tobytes() == hom[k].tobytes()
        x = 0.5 * cfp.bandwidth * taus
        skipped["erf"] += np.sum(np.abs(1.0 / cfp.xi - x) >= interferometry._ERF_SATURATED)
        skipped["exp"] += np.sum(x * x >= interferometry._EXP_UNDERFLOWED)
        skipped["cos"] += np.sum(f1 == 0.0)
    # every fill was exercised
    assert min(skipped.values()) > 0, skipped


CONV_NEG = make_params(-math.pi / 6, 2e4)


def _cli_fringe_delays(n: int = 60751) -> np.ndarray:
    # n = 60751 is the CLI's default fringe grid at CONV_NEG, the closed
    # fringe trace of the benchmark's closed_products pass: 15 chunks
    span = delay_span(CONV_NEG, PUMP)
    return np.linspace(-span, span, n)


def test_f2_calls_exp_only_inside_the_dip(monkeypatch):
    cfp = closed_form_params(CONV_NEG, PUMP)
    taus = _cli_fringe_delays()
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda t: calls.append(t) or exp(t))
    got = fringe_envelope_terms(cfp, taus)
    monkeypatch.undo()
    # the bits of the formula that calls exp for every F2 entry
    for value, want in zip(got, _closed_forms_per_element(cfp, taus)[1:3]):
        assert value.tobytes() == want.tobytes()
    # exp is entered where the Gaussian does not underflow, and for F2 only
    # where r < 1: at r = 1 its factor 1 - r is +0.0, and so is the term
    x = 0.5 * cfp.bandwidth * taus
    inside = np.minimum(np.abs(taus), cfp.tau_theta) / cfp.tau_theta < 1.0
    underflowed = interferometry._EXP_UNDERFLOWED
    gauss_calls = np.sum(x * x < underflowed)
    assert len(calls) == gauss_calls + np.sum(inside & (x * x * cfp.q2 < underflowed))
    assert np.sum(~inside) == 32922  # of the 60,751 F2 entries, every one entered exp before


def _closed_forms(cfp, taus):
    return [hom_rate_closed(cfp, taus), *fringe_envelope_terms(cfp, taus),
            mz_rate_closed(cfp, taus)]


@pytest.mark.parametrize("shape", [
    (_DELAY_CHUNK - 1,), (_DELAY_CHUNK,), (_DELAY_CHUNK + 1,), (3, 5001),
], ids=["chunk-1", "chunk", "chunk+1", "2d"])
def test_closed_forms_do_not_depend_on_the_chunks(monkeypatch, shape):
    cfp = closed_form_params(CONV_NEG, PUMP)
    taus = _cli_fringe_delays(math.prod(shape)).reshape(shape)
    if taus.ndim == 2:
        # a strided (5001, 3) view, whose first chunk ends inside a row
        taus = taus.T
    chunked = _closed_forms(cfp, taus)
    monkeypatch.setattr(interferometry, "_DELAY_CHUNK", 10**9)
    whole = _closed_forms(cfp, taus)
    for got, want in zip(chunked, whole, strict=True):
        assert got.shape == taus.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("closed_form, outputs", [
    (hom_rate_closed, 1), (fringe_envelope_terms, 2), (mz_rate_closed, 1),
], ids=["hom", "fringe", "mz"])
def test_closed_form_memory_stays_within_its_outputs_and_one_chunk(closed_form, outputs):
    cfp = closed_form_params(CONV_NEG, PUMP)
    taus = _cli_fringe_delays()
    _, peak = traced_peak(lambda: closed_form(cfp, taus))
    # the float64 outputs and the finiteness check's two boolean masks, and
    # one chunk's float64 temporaries and the Python floats of its libm
    # batch, at most ~117 bytes per chunk delay (F1 and F2 together): 20
    # float64s per chunk delay bound it; the whole array at once held ~12
    # float64s per delay, 4.9 MB for the fringe terms here, against 1.6
    assert peak <= (8 * outputs + 2) * len(taus) + 160 * _DELAY_CHUNK


# ---------------------------------------------------------------------------
# visibilities
# ---------------------------------------------------------------------------

def test_v_hom_values():
    assert v_hom(closed_form_params(EPM, PUMP)) == 1.0
    assert v_hom(closed_form_params(CONV, PUMP)) == pytest.approx(0.69798, abs=1e-4)
    tiny_xi = closed_form_params(
        CONV, PumpSpectrum(omega_p=OMEGA_P, bandwidth=4e5))
    assert v_hom(tiny_xi) < 1e-3
    with pytest.raises(ValueError, match="tau_theta = 0: dip has zero width"):
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
    want = hom_rate_closed(cfp, taus)
    assert np.max(np.abs(got - want)) <= 1e-3


def test_quadrature_matches_closed_fringe():
    taus = np.linspace(-0.12, 0.12, 25)
    got = mz_trace_integral(EPM, PUMP, taus, tau_max=0.12)
    cfp = closed_form_params(EPM, PUMP)
    want = mz_rate_closed(cfp, taus)
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


@pytest.mark.parametrize("trace", [hom_trace_integral, mz_trace_integral], ids=["hom", "mz"])
def test_quadrature_self_check_rejects_drift_above_tolerance(trace):
    # at the check reach the fine and coarse builds differ by ~1.2e-9 (hom)
    # and ~1.3e-14 (mz) here, so a relative tolerance of 1e-16 cannot be met
    spec = QuadratureSpec(rel_tol=1e-16, abs_tol=0.0)
    with pytest.raises(NonConvergence, match="a finer quadrature step still moves the trace"):
        trace(EPM, PUMP, np.linspace(-0.1, 0.1, 21), spec=spec)


@pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec(rel_tol=1e-16, abs_tol=0.0)],
                         ids=["default", "strict"])
@pytest.mark.parametrize("trace", [hom_trace_integral, mz_trace_integral], ids=["hom", "mz"])
def test_quadrature_of_no_delays_is_empty(trace, spec):
    # no delay, no drift: even a tolerance no trace can meet passes
    got = trace(EPM, PUMP, np.array([]), spec=spec)
    assert isinstance(got, np.ndarray) and got.shape == (0,)


@pytest.mark.parametrize("taus, tau_max, message", [
    ([0.0, math.inf], None, "delays taus must be finite, got inf"),
    ([-math.inf], None, "delays taus must be finite, got -inf"),
    ([math.nan], None, "delays taus must be finite, got nan"),
    ([0.0, 0.05], math.nan, "tau_max = nan must be finite"),
    ([0.0, 0.05], math.inf, "tau_max = inf must be finite"),
], ids=["inf-delay", "minus-inf-delay", "nan-delay", "nan-tau-max", "inf-tau-max"])
@pytest.mark.parametrize("trace", [hom_trace_integral, mz_trace_integral], ids=["hom", "mz"])
def test_quadrature_rejects_non_finite_delays(trace, taus, tau_max, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        trace(EPM, PUMP, np.array(taus), tau_max=tau_max)


@pytest.mark.parametrize("tau, named", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (np.array([[0.0, math.nan], [0.01, -math.inf]]), "-inf, nan"),
    (np.r_[math.nan, np.zeros(2 * _DELAY_CHUNK), -math.inf, math.nan], "-inf, nan"),
], ids=["inf", "minus-inf", "nan", "array", "chunks"])
@pytest.mark.parametrize("trace", [hom_rate_closed, fringe_envelope_terms, mz_rate_closed],
                         ids=["hom", "fringe", "mz"])
def test_closed_traces_reject_non_finite_delays(trace, tau, named):
    # the same delays the quadrature rejects, named in the message; across
    # chunks, every bad delay is named before any chunk is evaluated
    with pytest.raises(ValueError, match=re.escape(f"delays tau must be finite, got {named}")):
        trace(closed_form_params(CONV, PUMP), tau)


@pytest.mark.parametrize("trace", [hom_trace_integral, mz_trace_integral], ids=["hom", "mz"])
def test_quadrature_takes_delays_of_any_shape(trace):
    # a validate grid, whole and as a (3, 67) array, and one delay alone
    params = make_params(-math.pi / 4)
    taus = np.linspace(-1, 1, 201) * delay_span(params, PUMP)
    grid = trace(params, PUMP, taus.reshape(3, 67))
    assert grid.shape == (3, 67)
    assert np.array_equal(grid, trace(params, PUMP, taus).reshape(3, 67))
    one = trace(params, PUMP, 0.02)
    assert one.shape == ()
    assert np.array_equal(one, trace(params, PUMP, np.array([0.02]))[0])


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
        values.append(mz_rate_closed(cfp, taus))
    assert np.max(np.abs(values[0] - values[1])) <= 1e-6
    assert np.max(np.abs(values[1] - values[2])) <= 1e-6


def test_trace_ranges():
    span = delay_span(EPM, PUMP)
    taus = np.linspace(-span, span, 61)
    hom = hom_trace_integral(EPM, PUMP, taus)
    mz = mz_trace_integral(EPM, PUMP, taus)
    assert np.all(hom >= -1e-9) and np.all(hom <= 1.0 + 1e-3)
    assert np.all(mz >= -1e-9) and np.all(mz <= 2.0 + 1e-9)


@pytest.mark.parametrize("name, kind, theta, length", VALIDATION_SETS,
                         ids=[row[0] for row in VALIDATION_SETS])
def test_quadrature_traces_on_the_validate_grids_are_not_negative(name, kind, theta, length):
    # both raw integrands are sums of |amplitude|^2; the epm dip cancels to
    # rounding at zero delay
    params = make_params(theta, length)
    taus = np.linspace(-1, 1, 201) * delay_span(params, PUMP)
    trace = hom_trace_integral if kind is TraceKind.HOM else mz_trace_integral
    assert np.all(trace(params, PUMP, taus) >= 0.0)


def test_degenerate_ray_quadrature_raises():
    with pytest.raises(ValueError, match="gamma_s = gamma_i: the quadrature route does not cover"):
        hom_trace_integral(make_params(math.pi / 4), PUMP, np.array([0.0]))


def _raises(message, fn, *args) -> bool:
    """Whether fn(*args) raises; what it raises must be a ValueError whose
    message starts with message."""
    try:
        fn(*args)
    except ValueError as exc:
        assert str(exc).startswith(message), exc
        return True
    return False


@pytest.mark.parametrize("theta, equal", [
    (math.pi / 4 + 1e-13, True), (math.pi / 4 - 1e-13, True),
    (math.pi / 4 + 1e-11, False), (math.pi / 4 - 1e-11, False),
    (-3 * math.pi / 4, True),
])
def test_closed_form_engine_and_bandwidth_agree_on_the_equal_gamma_ray(theta, equal):
    params = make_params(theta)
    assert params.gammas_equal is equal
    assert (closed_form_params(params, PUMP).tau_theta == 0.0) is equal
    assert _raises("gamma_s = gamma_i: the quadrature route", _line_spectra,
                   params, PUMP, 0.0, "coarse", 2**15) is equal
    assert _raises("gamma_s = gamma_i; bandwidth diverges", fluorescence_bandwidth,
                   params) is equal


def _spectra_and_axes(params, pump, tau_max, grade, reaches=(_V_REACH,)):
    """Freshly built line spectra, one per reach, and the node axes
    (un, wu, vn, vw) of each, recorded as the build asks for them; wu
    carries the pump weight, and vw the roll-off factor that the build
    computes for v > 0 at that reach, mirrored."""
    axes, rule, roll_offs, roll_off = [], interferometry.midpoint_rule, [], interferometry._roll_off

    def recorded(*args):
        axes.append(rule(*args))
        return axes[-1]

    def recorded_roll_off(*args):
        roll_offs.append(roll_off(*args))
        return roll_offs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interferometry, "midpoint_rule", recorded)
        mp.setattr(interferometry, "_roll_off", recorded_roll_off)
        spectra = _line_spectra(params, pump, tau_max, grade, 2**15, reaches)
    (un, uw), (vn, vw) = axes
    assert len(roll_offs) == len(reaches)
    wu = np.exp(-((un / pump.bandwidth) ** 2)) * uw
    return spectra, [(un, wu, vn, vw * np.concatenate((taper[::-1], taper)))
                     for taper in roll_offs]


def _check_half(params, pump):
    """v_half of the self-check's reach: _V_CHECK / tau_theta plus the ridge
    term 5 bw |a| / |b|."""
    a = 0.5 * (params.gamma_s + params.gamma_i)
    b = 0.5 * (params.gamma_s - params.gamma_i)
    return _V_CHECK / (abs(b) * params.length) + 5.0 * pump.bandwidth * abs(a) / abs(b)


def _spectra_from_profiles(axes, profiles, omega_p):
    """The line spectra of the u profiles q_u, r_u and the v profiles g2_v,
    g3_v over every v node, one comb per node axis: each v line's weight
    folds in its mirror's, and every weight is divided by the mass
    sum_u wu q_u."""
    un, wu, vn, vw = axes
    q_u, r_u, g2_v, g3_v = profiles
    half = len(vn) // 2
    mass = wu @ q_u

    def fold(g):
        return (vw * g)[half:] + (vw * g)[:half][::-1]

    return {TraceKind.HOM: ((vn[half:], -2.0 * fold(g3_v) / mass),),
            TraceKind.MZ: ((un + omega_p, wu * (0.5 * q_u + r_u) / mass),
                           (vn[half:], fold(0.5 * g2_v - g3_v) / mass))}


def _assert_spectra_match(spectra, axes, profiles):
    """The built lines are those of the reference profiles, and on each
    node axis its weights lie within 1e-12 of the largest weight that the
    profiles' magnitudes give there, with g3_v's negated so that no term
    cancels: the fringe's v weights are a difference of two profiles, which
    cancels exactly at a = 0."""
    want = _spectra_from_profiles(axes, profiles, PUMP.omega_p)
    q_u, r_u, g2_v, g3_v = map(np.abs, profiles)
    size = _spectra_from_profiles(axes, (q_u, r_u, g2_v, -g3_v), PUMP.omega_p)
    for kind, combs in want.items():
        assert len(spectra[kind]) == len(combs)
        for got, (freq, weights), (_, scale) in zip(spectra[kind], combs, size[kind]):
            # a comb cut at its reach's last line leaves out only lines of weight 0
            k = len(got[0])
            assert np.array_equal(got[0], freq[:k]) and not np.any(weights[k:])
            assert np.max(np.abs(got[1] - weights[:k])) <= 1e-12 * np.max(np.abs(scale))


def _unfolded_profiles(axes, params):
    """Reference reduction without the reflection fold: phi_L at a u + b v
    and a u - b v over every v node, in v chunks, divided by L so the
    profiles share the build's normalization."""
    un, wu, vn, vw = axes
    a = 0.5 * (params.gamma_s + params.gamma_i)
    b = 0.5 * (params.gamma_s - params.gamma_i)
    L = params.length
    q_u, r_u = np.zeros_like(un), np.zeros_like(un)
    g2_v, g3_v = np.empty_like(vn), np.empty_like(vn)
    for lo in range(0, len(vn), 2000):
        v, w = vn[lo:lo + 2000], vw[lo:lo + 2000]
        p1 = phi_L(a * un[:, None] + b * v[None, :], L) / L
        p2 = phi_L(a * un[:, None] - b * v[None, :], L) / L
        ssq, cross = p1 * p1 + p2 * p2, p1 * p2
        q_u += ssq @ w
        r_u += cross @ w
        g2_v[lo:lo + 2000] = wu @ ssq
        g3_v[lo:lo + 2000] = wu @ cross
    return q_u, r_u, g2_v, g3_v


def _unfolded_traces(axes, profiles, omega_p, taus):
    un, wu, vn, vw = axes
    q_u, r_u, g2_v, g3_v = profiles
    mass = wu @ q_u
    hom, mz = [], []
    for tau in taus:
        cos_u = np.cos((un + omega_p) * tau)
        cos_v = np.cos(vn * tau)
        a1, b1 = (wu * q_u) @ cos_u, (wu * r_u) @ cos_u
        a2, b2 = (vw * g2_v) @ cos_v, (vw * g3_v) @ cos_v
        hom.append(1.0 - 2.0 * b2 / mass)
        mz.append((0.25 * mass + 0.125 * (a1 + a2) + 0.25 * (b1 - b2)) / (0.25 * mass))
    return np.array(hom), np.array(mz)


def test_reflection_fold_matches_unfolded_reduction():
    # at the full reach and at the self-check's, whose sums come from the
    # same kernel blocks under a second roll-off, over lines cut at 2 v_half
    params = make_params(math.pi / 5)  # short crystal, off both special rays
    taus = np.linspace(-0.02, 0.02, 9)
    spectra, reach_axes = _spectra_and_axes(params, PUMP, 0.02, "fine", (_V_REACH, _V_CHECK))
    for at_reach, axes in zip(spectra, reach_axes):
        un, wu, vn, vw = axes
        assert np.array_equal(un, -un[::-1]) and np.array_equal(wu, wu[::-1])
        assert np.array_equal(vn, -vn[::-1]) and np.array_equal(vw, vw[::-1])
        ref = _unfolded_profiles(axes, params)
        _assert_spectra_match(at_reach, axes, ref)
        for got, want in zip(_traces(at_reach, taus),
                             _unfolded_traces(axes, ref, PUMP.omega_p, taus)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    _assert_cut_at_the_check_reach(spectra, reach_axes, _check_half(params, PUMP))


def _assert_cut_at_the_check_reach(spectra, reach_axes, v_check):
    """The full reach keeps every v > 0 line; the check reach's v combs end
    at the last line below 2 v_check, and its axis ends well before the
    full one's."""
    (full, check), (axes, _) = spectra, reach_axes
    vn = axes[2]
    vp = vn[len(vn) // 2:]
    assert len(full[TraceKind.HOM][0][0]) == len(vp)
    k = len(check[TraceKind.HOM][0][0])
    assert vp[k - 1] < 2.0 * v_check <= vp[k] and 4 * k < len(vp)
    assert len(check[TraceKind.MZ][1][0]) == k
    assert np.array_equal(check[TraceKind.MZ][0][0], full[TraceKind.MZ][0][0])


def _kernel(au, bv, chunk):
    """Every block of _sinc_blocks, copied out of its reused buffer."""
    return np.concatenate([p1.copy() for _, p1, _ in _sinc_blocks(au, bv, chunk)], axis=1)


# an ascending axis whose nodes lie more than 2 _RIDGE apart, so a row on the
# ridge through one node has that node alone within _RIDGE of it
_SPREAD_BV = np.array([-999.75, -310.5, -17.25, -3.0, 0.0, 2.5, 41.125, 640.0, 998.5])


def _ridge_rows():
    """Rows on the ridge of every _SPREAD_BV node, at each offset from it,
    plus far rows of both signs."""
    t = _RIDGE
    offsets = [0.0, t, -t, t * (1 + 1e-12), t * (1 - 1e-12), -t * (1 + 1e-12),
               -t * (1 - 1e-12), 1e-9, -1e-9]
    return np.concatenate(([-b + d for b in _SPREAD_BV for d in offsets],
                           np.linspace(-1e3, 1e3, 41)))


def _dense_axes():
    """Random rows and an ascending random axis that holds the negatives of
    the last 50 rows, so those rows cross the ridge exactly."""
    rng = np.random.default_rng(7)
    au = np.concatenate((rng.uniform(-1e3, 1e3, 300), -rng.uniform(0, 1e3, 50)))
    bv = np.sort(np.concatenate((rng.uniform(-1e3, 1e3, 700), -au[-50:])))
    return au, bv


@pytest.mark.parametrize("chunk", [1, 2, len(_SPREAD_BV)])
def test_sinc_kernel_matches_np_sinc_on_and_near_the_ridge(chunk):
    au = _ridge_rows()
    y = au[:, None] + _SPREAD_BV[None, :]
    assert np.count_nonzero(y == 0.0) >= len(_SPREAD_BV)
    want = np.sinc(y / np.pi)
    got = _kernel(au, _SPREAD_BV, chunk)
    assert np.all(got[y == 0.0] == 1.0)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_sinc_kernel_matches_np_sinc_on_dense_axes():
    au, bv = _dense_axes()
    want = np.sinc(np.add.outer(au, bv) / np.pi)
    assert np.max(np.abs(_kernel(au, bv, 64) - want)) <= 1e-15


@pytest.mark.parametrize("dense, chunk", [
    (False, 1), (False, 2), (False, len(_SPREAD_BV)), (True, 64),
], ids=["spread_1", "spread_2", "spread_all", "dense_64"])
def test_sinc_kernel_y_is_the_exact_sum_off_the_ridge(dense, chunk):
    # the ridge cells, |y| < _RIDGE, rest on y = 0 being exact; the kernel
    # sets them to 1 before dividing and evaluates them directly
    au, bv = _dense_axes() if dense else (_ridge_rows(), _SPREAD_BV)
    y = np.concatenate([y.copy() for _, _, y in _sinc_blocks(au, bv, chunk)], axis=1)
    ridge = (bv > (-au - _RIDGE)[:, None]) & (bv < (-au + _RIDGE)[:, None])
    assert ridge.any() and not ridge.all()
    assert np.all(y[ridge] == 1.0)
    assert np.array_equal(y[~ridge], np.add.outer(au, bv)[~ridge])


def _sinc_reference_profiles(axes, params):
    """Reference build: one np.sinc per node pair on the build's own nodes,
    folded like the build (p2 is p1's row reversal, v < 0 by symmetry),
    as profiles over every v node."""
    un, wu, vn, vw = axes
    a = 0.5 * (params.gamma_s + params.gamma_i)
    b = 0.5 * (params.gamma_s - params.gamma_i)
    L = params.length
    au = (a * L / (2.0 * math.pi)) * un
    half = len(vn) // 2
    vp, vwp = vn[half:], vw[half:]
    s_u, c_u = np.zeros_like(un), np.zeros_like(un)
    s_v, c_v = np.empty_like(vp), np.empty_like(vp)
    step = max(1, 2**20 // len(un))
    for lo in range(0, len(vp), step):
        p1 = np.sinc(au[:, None] + (b * L / (2.0 * math.pi)) * vp[None, lo:lo + step])
        sq, cross = p1 * p1, p1 * p1[::-1]
        s_u += sq @ vwp[lo:lo + step]
        c_u += cross @ vwp[lo:lo + step]
        s_v[lo:lo + step] = wu @ sq
        c_v[lo:lo + step] = wu @ cross

    def mirrored(g):
        return np.concatenate((g[::-1], g))
    return 2.0 * (s_u + s_u[::-1]), 2.0 * c_u, mirrored(2.0 * s_v), mirrored(c_v)


@pytest.mark.parametrize("theta, length", [
    (-math.pi / 4, 1e3), (math.pi / 5, 2e4), (-math.pi / 6, 2e4), (2 * math.pi / 3, 1e3),
], ids=["epm", "conv_pos", "conv_neg", "b_negative"])
def test_engine_profiles_match_np_sinc_build(theta, length):
    params = make_params(theta, length)
    spectra, reach_axes = _spectra_and_axes(params, PUMP, delay_span(params, PUMP), "coarse",
                                            (_V_REACH, _V_CHECK))
    for at_reach, axes in zip(spectra, reach_axes):
        _assert_spectra_match(at_reach, axes, _sinc_reference_profiles(axes, params))
    _assert_cut_at_the_check_reach(spectra, reach_axes, _check_half(params, PUMP))


def _direct_traces(spectra, taus):
    """Reference evaluation: one np.cos per line per delay, reduced with
    plain dot products on the same spectra."""
    return tuple(np.array([1.0 + sum(weights @ np.cos(freq * tau) for freq, weights in combs)
                           for tau in taus])
                 for combs in (spectra[TraceKind.HOM], spectra[TraceKind.MZ]))


def _traces(spectra, taus):
    return tuple(1.0 + sum(_cos_sums(freq, weights, taus) for freq, weights in spectra[kind])
                 for kind in (TraceKind.HOM, TraceKind.MZ))


@pytest.fixture(scope="module", params=[-math.pi / 4, math.pi / 5], ids=["epm", "pi_5"])
def coarse_spectra(request):
    return _line_spectra(make_params(request.param), PUMP, 0.05, "coarse", 2**15)[0]


def _transform_grids(monkeypatch):
    """Delay counts of every _chirp_z_cos_sums call from here on."""
    calls, transform = [], interferometry._chirp_z_cos_sums

    def counted(freq, weights, d, tau_c, n):
        calls.append(n)
        return transform(freq, weights, d, tau_c, n)

    monkeypatch.setattr(interferometry, "_chirp_z_cos_sums", counted)
    return calls


def test_blocked_evaluation_matches_direct_on_a_uniform_grid(coarse_spectra, monkeypatch):
    taus = np.linspace(-0.05, 0.05, 2001)
    calls = _transform_grids(monkeypatch)
    for got, want in zip(_traces(coarse_spectra, taus), _direct_traces(coarse_spectra, taus)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert calls == [2001] * 3  # one transform per comb: the dip's one, the fringe's two


def test_blocked_evaluation_is_even_on_a_symmetric_grid(coarse_spectra):
    taus = np.linspace(-0.05, 0.05, 2001)
    for got in _traces(coarse_spectra, taus):
        assert np.max(np.abs(got - got[::-1])) <= 1e-12


@pytest.mark.parametrize("taus", [
    np.linspace(-0.05, 0.05, 41) + np.where(np.arange(41) == 17, 1e-9, 0.0),
    np.array([-0.04, -0.011, 0.0, 0.003, 0.027, 0.05]),
    np.empty(0),
    np.array([0.013]),
    np.array([-0.01, 0.03]),
], ids=["one_delay_off_a_linspace", "irregular", "n0", "n1", "n2"])
def test_direct_evaluation_off_uniform_grids(coarse_spectra, taus, monkeypatch):
    calls = _transform_grids(monkeypatch)
    for got, want in zip(_traces(coarse_spectra, taus), _direct_traces(coarse_spectra, taus)):
        assert got.shape == want.shape
        if want.size:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert calls == []


def _direct_cos_sums(freq, weights, taus):
    """Reference: one np.cos per node per delay, summed over node chunks."""
    out = np.zeros(len(taus))
    for lo in range(0, len(freq), 512):
        out += weights[lo:lo + 512] @ np.cos(np.multiply.outer(freq[lo:lo + 512], taus))
    return out


@pytest.fixture(scope="module")
def fine_spectra():
    """Fine spectra of the dip-trace settings with the fewest and the most
    u nodes, each with its delay span."""
    settings = [make_params(-math.pi / 4), make_params(-math.pi / 6, 2e4)]
    return [(_line_spectra(p, PUMP, delay_span(p, PUMP), "fine", 2**15)[0], delay_span(p, PUMP))
            for p in settings]


def _worst_transform_error(fine_spectra, n, grids=("symmetric", "right", "left")):
    """Largest |_cos_sums - direct sum| / sum_i |w_i| over every comb of
    each setting and over a symmetric and two one-sided n-point grids,
    checked at up to ~130 delays that include both ends."""
    worst = 0.0
    for spectra, span in fine_spectra:
        ends = {"symmetric": (-span, span), "right": (0.3 * span, span),
                "left": (-span, -0.3 * span)}
        for lo, hi in map(ends.get, grids):
            taus = np.linspace(lo, hi, n)
            at = np.unique(np.r_[np.arange(0, n, max(1, n // 128)), n - 1])
            for freq, weights in (comb for combs in spectra.values() for comb in combs):
                err = np.abs(_cos_sums(freq, weights, taus)[at]
                             - _direct_cos_sums(freq, weights, taus[at]))
                worst = max(worst, float(err.max() / np.abs(weights).sum()))
    return worst


# On one-sided grids the sums cancel to ~1e-7 of the weight mass, so the
# error is bounded against sum |w|, not max |sum|.  It is up to ~3e-13
# there, from rounding the phase that a comb's lines share once per delay,
# freq[0] j' d (about eps |freq[0] tau|, largest on the fringe's u comb at
# omega_p), and from the ~1 ulp by which the linspace delays miss the exact
# grid, which moves each phase by up to ~eps max |freq tau|.
@pytest.mark.parametrize("n", [3, 4, 5, 17, 200, 201, 2000, 7975, 60751])
def test_nufft_cos_sums_match_a_direct_sum(fine_spectra, n, monkeypatch):
    calls = _transform_grids(monkeypatch)
    assert _worst_transform_error(fine_spectra, n) <= 1e-12
    assert calls and set(calls) == {n}


def test_nufft_cos_sums_match_a_direct_sum_at_a_million_delays(fine_spectra, monkeypatch):
    # the setting with the most u nodes, whose u comb shares the largest
    # phase freq[0] j' d; r x^2 grows with n, to ~1e5 here
    calls = _transform_grids(monkeypatch)
    assert _worst_transform_error(fine_spectra[1:], 10**6, ("symmetric",)) <= 1e-12
    assert calls == [10**6] * 3


def test_nufft_cos_sums_fail_with_a_chirp_not_reduced_mod_one(fine_spectra, monkeypatch):
    # the bound above sees the rounding of r x^2 when it is not reduced mod 1
    # exactly: about eps r x^2, 5e-11 of sum |w| at 10**6 delays
    monkeypatch.setattr(interferometry, "_chirp_phase", lambda r, x: r * x * x)
    assert _worst_transform_error(fine_spectra[1:], 10**6, ("symmetric",)) > 1e-11


# the three validate settings and the broad-pump case, with their delay spans
_FINE_CASES = pytest.mark.parametrize("theta, length, bandwidth, span", [
    (-math.pi / 4, 1e3, 40.0, None), (math.pi / 5, 2e4, 40.0, None),
    (-math.pi / 6, 2e4, 40.0, None), (2.0, 74017.0, 168.0, math.pi / OMEGA_P),
], ids=["epm", "conv_pos", "conv_neg", "broad_pump"])


@_FINE_CASES
def test_fine_build_agrees_with_one_at_twice_its_density(theta, length, bandwidth, span,
                                                         monkeypatch):
    # the validate grids, and half a fringe period of the broad-pump case,
    # where the coarse build comes closest to its drift gate: an oversampling cut
    # that goes too far fails here
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    span = span or delay_span(params, pump)
    taus = np.linspace(-span, span, 201)
    fine = _line_spectra(params, pump, span, "fine", 2**15)[0]
    monkeypatch.setitem(interferometry.OVERSAMPLING, "fine",
                        2.0 * interferometry.OVERSAMPLING["fine"])
    dense = _line_spectra(params, pump, span, "fine", 2**15)[0]
    assert all(d > f for d, f in zip(node_counts(dense), node_counts(fine)))
    for got, want in zip(_traces(fine, taus), _traces(dense, taus)):
        assert np.max(np.abs(got - want)) <= 1e-9


@_FINE_CASES
def test_fringe_u_weights_are_mirror_symmetric(theta, length, bandwidth, span):
    # un is an exact mirror, wu exactly even and the u sums of (p1 + p2)^2
    # mirrored from the first half, so the fringe's u weights must be exactly even
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    spectra = _line_spectra(params, pump, span or delay_span(params, pump), "fine", 2**15)[0]
    weights = spectra[TraceKind.MZ][0][1]
    assert np.array_equal(weights, weights[::-1])


@_FINE_CASES
@pytest.mark.parametrize("grade", ["fine", "coarse"])
def test_every_comb_is_equally_spaced(theta, length, bandwidth, span, grade):
    # _chirp_z_cos_sums reads each comb as freq[0] + i h; two node axes
    # joined into one comb break that by far more than rounding
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    spectra = _line_spectra(params, pump, span or delay_span(params, pump), grade, 2**15)[0]
    for freq, _ in (comb for combs in spectra.values() for comb in combs):
        h = (freq[-1] - freq[0]) / (len(freq) - 1)
        gap = np.abs(freq - (freq[0] + h * np.arange(len(freq))))
        assert h > 0 and np.max(gap) <= 4 * np.spacing(np.max(np.abs(freq)))


@_FINE_CASES
@pytest.mark.parametrize("grade", ["fine", "coarse"])
def test_fringe_u_lines_follow_parseval(theta, length, bandwidth, span, grade):
    # with sinc(y) = sin(y) / y, A = a L / 2 and B = |b| L / 2, Parseval
    # gives, over all v, pi / B for sinc^2(A u + B v) and (pi / B) sinc(2 A u)
    # for sinc(A u + B v) sinc(A u - B v), so the fringe's u lines carry
    # wu (1 + sinc(2 A u)) / (2 sum wu) whatever the closed forms say.  The
    # v weights roll off from v_half to 2 v_half, just past the last node,
    # which drops about 2.7 / (pi tau_theta 2 v_half) of each v integral; the
    # bound is 1.5 times that
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    spectra, [(un, wu, vn, _)] = _spectra_and_axes(params, pump,
                                                    span or delay_span(params, pump), grade)
    a = 0.5 * (params.gamma_s + params.gamma_i)
    tau_theta = 0.5 * abs(params.gamma_s - params.gamma_i) * length
    want = wu * (1.0 + np.sinc(a * length * un / math.pi)) / (2.0 * wu.sum())
    got = spectra[0][TraceKind.MZ][0][1]
    bound = 4.0 / (math.pi * tau_theta * vn[-1]) * np.max(want)
    assert np.max(np.abs(got - want)) <= bound


# blocks of one column, the default blocks, and one block over the whole
# v axis, as (_BLOCK_BYTES, _MIN_COLUMNS)
_BLOCK_SHAPES = {"one_column": (1, 1), "default": (_BLOCK_BYTES, _MIN_COLUMNS),
                 "whole_axis": (_BLOCK_BYTES, 2**40)}


@pytest.mark.parametrize("theta, length, bandwidth, span, ridge_blocks", [
    (-math.pi / 4, 1e3, 40.0, None, 1), (math.pi / 5, 2e4, 40.0, None, 1),
    (-math.pi / 6, 2e4, 40.0, None, 1), (2.0, 74017.0, 168.0, math.pi / OMEGA_P, 2),
], ids=["epm", "conv_pos", "conv_neg", "broad_pump"])
def test_line_spectra_do_not_depend_on_the_block_shape(theta, length, bandwidth, span,
                                                       ridge_blocks, monkeypatch):
    # the validate settings' fine builds, and a ray whose ridge cells,
    # |y| < _RIDGE, fall in at least `ridge_blocks` of the default blocks:
    # every block shape sums the same kernel cells, so each comb agrees
    # with the whole-axis build to the rounding of the sums' order.  At epm
    # the fringe's v comb is rounding-level (max |w| ~ 5e-34): the direct
    # sin(y) / y of the ridge cells makes mirrored rows bitwise equal there,
    # and a block that skips it moves that comb by more than its size
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    span = span or delay_span(params, pump)
    blocks_with_ridge, sinc_blocks = set(), interferometry._sinc_blocks

    def spied(au, bv, chunk):
        columns = np.nonzero(np.abs(np.add.outer(au, bv)) < _RIDGE)[1]
        blocks_with_ridge.update((columns // chunk).tolist())
        return sinc_blocks(au, bv, chunk)

    spectra = {}
    for name, (block, floor) in _BLOCK_SHAPES.items():
        monkeypatch.setattr(interferometry, "_BLOCK_BYTES", block)
        monkeypatch.setattr(interferometry, "_MIN_COLUMNS", floor)
        monkeypatch.setattr(interferometry, "_sinc_blocks",
                            spied if name == "default" else sinc_blocks)
        spectra[name] = _line_spectra(params, pump, span, "fine", 2**15)[0]
    assert len(blocks_with_ridge) >= ridge_blocks
    want = spectra.pop("whole_axis")
    for got in spectra.values():
        for kind, combs in want.items():
            for (freq, weights), (got_freq, got_weights) in zip(combs, got[kind], strict=True):
                assert np.array_equal(got_freq, freq)
                assert np.max(np.abs(got_weights - weights)) <= 1e-13 * np.max(np.abs(weights))


@pytest.mark.parametrize("theta, length, bandwidth", [
    (-math.pi / 4, 1e3, 40.0), (math.pi / 5, 2e4, 40.0), (-math.pi / 6, 2e4, 40.0),
    (2.0, 74017.0, 168.0),
], ids=["epm", "conv_pos", "conv_neg", "broad_pump"])
def test_build_memory_stays_within_two_blocks(theta, length, bandwidth):
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    span = delay_span(params, pump)
    spectra, peak = traced_peak(lambda: _line_spectra(params, pump, span, "fine", 2**15)[0])
    # the loop holds two kernel blocks (y and p1) of n_u rows at once, each
    # at least _MIN_COLUMNS wide: at the broad pump's 5244 u nodes the floor
    # sets the width, not _BLOCK_BYTES; the node axes, their sines and
    # cosines, the profiles and the spectra take ~150 bytes per node more
    n_u = node_counts(spectra)[0]
    block = 8 * n_u * max(_MIN_COLUMNS, _BLOCK_BYTES // (8 * n_u))
    assert peak <= 2 * block + 192 * sum(node_counts(spectra))


def test_fringe_evaluation_memory_stays_within_the_block_budget():
    # the CLI's default fringe grid at CONV_NEG: 40 delays per fringe period
    taus = _cli_fringe_delays()
    spectra = _line_spectra(CONV_NEG, PUMP, taus[-1], "fine", 2**15)[0]
    _, peak = traced_peak(lambda: 1.0 + sum(_cos_sums(freq, weights, taus)
                                            for freq, weights in spectra[TraceKind.MZ]))
    # each comb's chirp-z transform runs on complex arrays of the least
    # 2^a, 3 2^a or 5 2^a at or past its nodes + n - 1 (65,536 points here,
    # under 1.1 n): the spectrum, the kernel and the kernel's phase
    # temporaries hold about 8 such arrays at once (~140 n bytes), and the
    # n-point sums and the trace fewer than 64 n more; the direct sum's node
    # chunks take _BLOCK_BYTES
    assert peak <= _BLOCK_BYTES + (2 * 64 + 64) * len(taus)


def test_fft_length_is_the_least_power_of_2_times_1_3_or_5():
    # brute force over every 2^a, 3 2^a and 5 2^a up to past 10^5
    lengths = np.sort([c << a for c in (1, 3, 5) for a in range(18)])
    ks = range(1, 10**5 + 1)
    want = lengths[np.searchsorted(lengths, np.array(ks))]
    assert [_fft_length(k) for k in ks] == want.tolist()


@pytest.mark.parametrize("budget, axis", [(4, "u axis (fine build)"), (60, "v axis (fine build)")])
def test_panel_budget_error_names_axis(budget, axis):
    with pytest.raises(NonConvergence, match=re.escape(axis)):
        hom_trace_integral(EPM, PUMP, np.array([0.0]), spec=QuadratureSpec(max_subdivisions=budget))


def test_hom_and_mz_traces_share_one_engine_build():
    params = make_params(math.pi / 5)
    taus = np.linspace(-0.02, 0.02, 5)
    _spectra_pair.cache_clear()
    hom = hom_trace_integral(params, PUMP, taus, tau_max=0.02)
    hits = _spectra_pair.cache_info().hits
    mz = mz_trace_integral(params, PUMP, taus, tau_max=0.02)
    assert _spectra_pair.cache_info().hits == hits + 1
    assert _spectra_pair.cache_info().misses == 1
    # the cached tuple: the fine build at the full and the check reach,
    # then the coarse build at the check reach alone
    fine, check, coarse = _spectra_pair(params, PUMP, 0.02, QuadratureSpec().max_subdivisions)
    (u_fine, v_fine), (u_check, v_check), (u_coarse, v_coarse) = map(node_counts,
                                                                      (fine, check, coarse))
    assert u_check == u_fine > u_coarse
    assert 4 * v_check < v_fine and v_coarse < v_check
    # a cold build gives bitwise the values the cached spectra gave
    _spectra_pair.cache_clear()
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


@pytest.fixture
def fresh_builds():
    """An empty build cache before and after the test, so that builds made
    under patched settings neither reuse nor leave cached spectra."""
    _spectra_pair.cache_clear()
    yield
    _spectra_pair.cache_clear()


# each validate set at a coarse step 3% past the band limit; at epm the
# fringe trace is the pump's Gaussian alone (a = 0 leaves its u lines only
# the pump weight, whose 12 / bw margin hides that cut, and its v lines
# cancel): its drift there is 1.8e-15 at the full reach as at the check
# reach, so there the step goes 40% past the limit (drift 0.11)
@pytest.mark.parametrize("name, kind, theta, length", VALIDATION_SETS,
                         ids=[row[0] for row in VALIDATION_SETS])
def test_self_check_fails_a_coarse_step_past_the_band_limit(name, kind, theta, length,
                                                            monkeypatch, fresh_builds):
    params = make_params(theta, length)
    span = delay_span(params, PUMP)
    monkeypatch.setitem(interferometry.OVERSAMPLING, "coarse", 0.6 if name == "epm_mz" else 0.97)
    trace = hom_trace_integral if kind is TraceKind.HOM else mz_trace_integral
    with pytest.raises(NonConvergence, match="a finer quadrature step still moves the trace"):
        trace(params, PUMP, np.linspace(-span, span, 201))


# the validate sets on their own grids, the broad pump over its delay span
# and over half a fringe period, and four rays of the property-test box
# (tests/test_quadrature_properties.py) at that test's four delays: the
# three with the largest drift at the check reach among 30 drawn, and the
# largest among 30 more. The drift at these cases measured 3.1e-15 to
# 4.4e-10 (CHANGES.md)
_DRIFT_CASES = [(theta, length, 40.0, "span") for _, _, theta, length in VALIDATION_SETS[::2]] + [
    (2.0, 74017.0, 168.0, "span"), (2.0, 74017.0, 168.0, "half_period"),
    (2.12, 4670.0, 200.0, "property"), (-1.54, 3064.0, 146.0, "property"),
    (-1.75, 2059.0, 159.0, "property"), (-0.6, 19931.0, 45.0, "property"),
]


@pytest.mark.parametrize("theta, length, bandwidth, grid", _DRIFT_CASES)
@pytest.mark.parametrize("trace", [hom_trace_integral, mz_trace_integral], ids=["hom", "mz"])
def test_self_check_drift_at_the_check_reach_is_small(trace, theta, length, bandwidth, grid,
                                                      fresh_builds):
    # the gate reads max |fine - coarse| at the check reach; a tolerance of
    # 1e-8, 100 times below the default, still passes
    params, pump = make_params(theta, length), PumpSpectrum(OMEGA_P, bandwidth)
    span = delay_span(params, pump)
    taus = {"span": np.linspace(-span, span, 201),
            "half_period": np.linspace(-math.pi / OMEGA_P, math.pi / OMEGA_P, 201),
            "property": np.array([0.0, math.pi / OMEGA_P, 0.3 * span, span])}[grid]
    trace(params, pump, taus, spec=QuadratureSpec(rel_tol=1e-300, abs_tol=1e-8))


@pytest.mark.parametrize("name, kind, theta, length", VALIDATION_SETS,
                         ids=[row[0] for row in VALIDATION_SETS])
def test_returned_trace_is_the_full_reach_fine_sum_alone(name, kind, theta, length, monkeypatch,
                                                         fresh_builds):
    # bit for bit 1 + the full-reach fine combs' sums, floored at 0; a check
    # reach moved to a quarter of the full one changes no bit of it
    params = make_params(theta, length)
    span = delay_span(params, PUMP)
    taus = np.linspace(-span, span, 201)
    trace = hom_trace_integral if kind is TraceKind.HOM else mz_trace_integral
    fine = _line_spectra(params, PUMP, span, "fine", 2**15)[0]
    want = np.maximum(1.0 + sum(_cos_sums(freq, weights, taus) for freq, weights in fine[kind]),
                      0.0)
    got = trace(params, PUMP, taus)
    assert np.array_equal(got, want)
    _spectra_pair.cache_clear()
    monkeypatch.setattr(interferometry, "_V_CHECK", _V_REACH / 4.0)
    assert np.array_equal(trace(params, PUMP, taus), got)
