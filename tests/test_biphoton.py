from __future__ import annotations

import math

import numpy as np
import pytest

from spdcsim import (
    BiphotonAmplitude,
    Interval,
    PhaseMatchParams,
    PumpSpectrum,
    amplitude,
    db_amplitude,
    factorization_check,
    fluorescence_bandwidth,
    grid,
    marginal_spectrum,
    phi_L,
    pump_alpha,
    tb_amplitude,
)

OMEGA_P = 2000.0
GAMMA = 8e-5


def make_bp(theta: float, length: float = 1e3, bandwidth: float = 40.0) -> BiphotonAmplitude:
    params = PhaseMatchParams(omega_p=OMEGA_P, gamma=GAMMA, theta=theta, length=length)
    return BiphotonAmplitude(params=params, pump=PumpSpectrum(omega_p=OMEGA_P, bandwidth=bandwidth))


# ---------------------------------------------------------------------------
# pump envelope and phase-matching profile
# ---------------------------------------------------------------------------

def test_pump_alpha_peak_and_width():
    pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=40.0)
    assert pump_alpha(pump, OMEGA_P) == 1.0
    up = pump_alpha(pump, OMEGA_P + 40.0)
    down = pump_alpha(pump, OMEGA_P - 40.0)
    assert up == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert up == down
    # intensity profile is amplitude squared: 1/e at one bandwidth
    assert up**2 == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("omega_p, bandwidth", [
    (math.nan, 40.0), (math.inf, 40.0), (OMEGA_P, math.nan), (OMEGA_P, math.inf)])
def test_pump_spectrum_rejects_non_finite(omega_p, bandwidth):
    with pytest.raises(ValueError, match="finite"):
        PumpSpectrum(omega_p=omega_p, bandwidth=bandwidth)


@pytest.mark.parametrize("bandwidth", [0.0, -0.0, -1.0])
def test_pump_spectrum_rejects_non_positive_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be > 0"):
        PumpSpectrum(omega_p=OMEGA_P, bandwidth=bandwidth)


def test_pump_alpha_rejects_monochromatic():
    with pytest.raises(ValueError):
        pump_alpha(PumpSpectrum(omega_p=OMEGA_P, bandwidth=0.0), OMEGA_P)


def test_phi_profile_points():
    length = 1e4
    assert phi_L(0.0, length) == length
    assert abs(phi_L(2.0 * math.pi / length, length)) < 1e-9 * length
    assert phi_L(math.pi / length, length) == pytest.approx(2.0 * length / math.pi, rel=1e-12)


def test_phi_series_branch_continuity():
    length = 1e4
    for x in (1e-12, 9.9e-11, 1.01e-10, 1e-8):
        assert phi_L(x, length) == pytest.approx(length * math.sin(x * length / 2) / (x * length / 2), rel=1e-12)


# ---------------------------------------------------------------------------
# joint amplitude
# ---------------------------------------------------------------------------

def test_amplitude_peaks_at_degeneracy():
    bp = make_bp(-math.pi / 4)
    assert amplitude(bp, OMEGA_P / 2, OMEGA_P / 2) == bp.params.length


def test_amplitude_constant_phase_matching_on_diagonal():
    # on the gamma_s = -gamma_i ray the mismatch vanishes along equal detunings
    bp = make_bp(-math.pi / 4, length=1e4)
    pump = bp.pump
    for x in (-30.0, -5.0, 12.0, 40.0):
        got = amplitude(bp, OMEGA_P / 2 + x, OMEGA_P / 2 + x)
        assert got == pytest.approx(1e4 * pump_alpha(pump, OMEGA_P + 2 * x), rel=1e-12)


def test_symmetry_axis_of_mismatch_factor():
    # pump factor removed: along (ds, di) = t (-sin, cos) the profile is constant
    for theta in (-math.pi / 4, math.pi / 20, 0.6, -1.2):
        params = PhaseMatchParams(omega_p=OMEGA_P, gamma=GAMMA, theta=theta, length=1e4)
        for t in np.linspace(-200.0, 200.0, 9):
            ds, di = -t * math.sin(theta), t * math.cos(theta)
            mism = params.gamma_s * ds + params.gamma_i * di
            assert abs(phi_L(mism, params.length) - params.length) <= 1e-12 * params.length


def test_swap_symmetry_only_on_matched_ray():
    rng = np.random.default_rng(12)
    bp = make_bp(-math.pi / 4, length=1e4)
    ds, di = rng.uniform(-100, 100, (2, 10_000))
    a = np.abs(amplitude(bp, OMEGA_P / 2 + ds, OMEGA_P / 2 + di))
    b = np.abs(amplitude(bp, OMEGA_P / 2 + di, OMEGA_P / 2 + ds))
    assert np.max(np.abs(a - b)) <= 1e-12 * bp.params.length
    bp_conv = make_bp(math.pi / 5, length=2e4)
    a = np.abs(amplitude(bp_conv, OMEGA_P / 2 + ds, OMEGA_P / 2 + di))
    b = np.abs(amplitude(bp_conv, OMEGA_P / 2 + di, OMEGA_P / 2 + ds))
    assert np.max(np.abs(a - b)) > 1e-3 * bp_conv.params.length


def test_factorization_defects():
    assert factorization_check(make_bp(-math.pi / 4), 2000) <= 1e-12 * 1e3
    assert factorization_check(make_bp(0.0), 2000) > 0.0
    assert factorization_check(make_bp(math.pi / 20, length=1e4), 2000) > 0.01 * 1e4


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_max_at_degeneracy_and_swap_symmetry():
    for theta, length, bw in ((math.pi / 20, 1e4, 40.0), (-math.pi / 4, 1e4, 40.0),
                              (-math.pi / 4, 1e3, 1.6), (-math.pi / 4, 5e4, 40.0)):
        bp = make_bp(theta, length=length, bandwidth=bw)
        span = Interval(OMEGA_P / 2 - 60.0, OMEGA_P / 2 + 60.0)
        g = grid(bp, span, span, 41)
        peak = np.unravel_index(np.argmax(g.values), g.values.shape)
        assert g.axis_s[peak[0]] == pytest.approx(OMEGA_P / 2)
        assert g.axis_i[peak[1]] == pytest.approx(OMEGA_P / 2)
    g = grid(make_bp(-math.pi / 4), Interval(940.0, 1060.0), Interval(940.0, 1060.0), 33)
    assert np.max(np.abs(g.values - g.values.T)) <= 1e-12 * 1e3


def test_grid_anticorrelated_ridge_for_narrow_pump():
    # narrowband pump concentrates the weight along ds = -di
    bp = make_bp(-math.pi / 4, length=1e3, bandwidth=1.6)
    span = Interval(OMEGA_P / 2 - 40.0, OMEGA_P / 2 + 40.0)
    g = grid(bp, span, span, 81)
    anti = np.mean(np.abs(np.diag(np.fliplr(g.values))))
    diag = np.mean(np.abs(np.diag(g.values)))
    assert anti > 5.0 * diag


def test_grid_requires_two_points():
    with pytest.raises(ValueError):
        grid(make_bp(0.0), Interval(0.0, 1.0), Interval(0.0, 1.0), 1)


# ---------------------------------------------------------------------------
# marginal spectra
# ---------------------------------------------------------------------------

def test_marginals_equal_on_matched_ray():
    bp = make_bp(-math.pi / 4)
    for w in (970.0, 1000.0, 1011.0, 1040.0):
        ms = marginal_spectrum(bp, "signal", w)
        mi = marginal_spectrum(bp, "idler", w)
        assert ms == pytest.approx(mi, rel=1e-6)


def test_marginals_differ_conventional():
    bp = make_bp(0.0)
    rels = []
    for w in (985.0, 1000.0, 1015.0, 1060.0):
        ms = marginal_spectrum(bp, "signal", w)
        mi = marginal_spectrum(bp, "idler", w)
        rels.append(abs(ms - mi) / max(ms, mi))
    assert max(rels) > 1e-3


def test_marginal_narrow_pump_approaches_sinc_profile():
    # nearly monochromatic pump: the marginal tracks the squared sinc profile
    params = PhaseMatchParams(omega_p=OMEGA_P, gamma=GAMMA, theta=-math.pi / 4, length=1e3)
    omega_f = fluorescence_bandwidth(params)
    bp = BiphotonAmplitude(params=params,
                           pump=PumpSpectrum(omega_p=OMEGA_P, bandwidth=omega_f / 100.0))
    profile = tb_amplitude(params).profile
    ref0 = marginal_spectrum(bp, "signal", OMEGA_P / 2)
    for x in (0.2 * omega_f, 0.35 * omega_f):
        got = marginal_spectrum(bp, "signal", OMEGA_P / 2 + x) / ref0
        want = (profile(x) / profile(0.0)) ** 2
        assert got == pytest.approx(want, abs=0.01)


def test_marginal_rejects_unknown_mode():
    with pytest.raises(ValueError):
        marginal_spectrum(make_bp(0.0), "pump", 1000.0)


# ---------------------------------------------------------------------------
# limiting profiles
# ---------------------------------------------------------------------------

def test_limit_profiles():
    params = PhaseMatchParams(omega_p=OMEGA_P, gamma=GAMMA, theta=-math.pi / 4, length=1e3)
    pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=40.0)
    omega_f = fluorescence_bandwidth(params)
    tb = tb_amplitude(params)
    db = db_amplitude(pump)
    assert tb.correlation_sign == -1
    assert db.correlation_sign == +1
    # first zero of the anti-correlated profile sits at half the bandwidth
    assert abs(tb.profile(omega_f / 2.0)) < 1e-9 * params.length
    assert abs(tb.profile(0.99 * omega_f / 2.0)) > 1e-3 * params.length
    # correlated profile is the pump envelope at twice the detuning
    for x in (0.0, 7.0, 23.0):
        assert db.profile(x) == pytest.approx(pump_alpha(pump, OMEGA_P + 2 * x), rel=1e-12)
