from __future__ import annotations

import math
import re

import numpy as np
import pytest

from spdcsim import (
    Interval,
    NonConvergence,
    PhaseMatchParams,
    PumpSpectrum,
    amplitude,
    db_amplitude,
    fluorescence_bandwidth,
    grid,
    marginal_spectrum,
    phi_L,
    pump_alpha,
    tb_amplitude,
    truncation_halfwidth,
)
from spdcsim import biphoton, interferometry
from spdcsim.numerics import PANEL_BUDGET
from conftest import node_counts, traced_peak

OMEGA_P = 2000.0
GAMMA = 8e-5


def setting(theta: float, length: float = 1e3,
            bandwidth: float = 40.0) -> tuple[PhaseMatchParams, PumpSpectrum]:
    params = PhaseMatchParams(gamma=GAMMA, theta=theta, length=length)
    return params, PumpSpectrum(omega_p=OMEGA_P, bandwidth=bandwidth)


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


@pytest.mark.parametrize("omega_p", [0.0, -1.0])
def test_pump_spectrum_rejects_non_positive_center(omega_p):
    with pytest.raises(ValueError, match="omega_p must be > 0"):
        PumpSpectrum(omega_p=omega_p, bandwidth=40.0)


def test_pump_alpha_rejects_monochromatic():
    with pytest.raises(ValueError):
        pump_alpha(PumpSpectrum(omega_p=OMEGA_P, bandwidth=0.0), OMEGA_P)


def test_phi_profile_points():
    length = 1e4
    assert phi_L(0.0, length) == length
    assert phi_L(-0.0, length) == length
    assert np.array_equal(phi_L(np.array([-0.0, 0.0]), length), [length, length])
    assert abs(phi_L(2.0 * math.pi / length, length)) < 1e-9 * length
    assert phi_L(math.pi / length, length) == pytest.approx(2.0 * length / math.pi, rel=1e-12)
    with pytest.raises(ValueError, match="length must be > 0"):
        phi_L(1.0, 0.0)


def test_phi_series_branch_continuity():
    # phi_L once switched to the series length (1 - y^2 / 6) below |y| =
    # 5e-7, y = x L / 2, i.e. |x| = 1e-10 here; its one path must agree
    # with the series on both sides of that switch, for either sign
    length = 1e4
    for x in (1e-12, 9.9e-11, 1.01e-10, 1e-8):
        for signed in (x, -x):
            y = signed * length / 2
            got = phi_L(signed, length)
            assert got == pytest.approx(length * math.sin(y) / y, rel=1e-12)
            assert abs(got - length * (1.0 - y * y / 6.0)) <= 2 * np.spacing(length)


# ---------------------------------------------------------------------------
# joint amplitude
# ---------------------------------------------------------------------------

def test_amplitude_peaks_at_degeneracy():
    params, pump = setting(-math.pi / 4)
    assert amplitude(params, pump, OMEGA_P / 2, OMEGA_P / 2) == params.length


def test_amplitude_constant_phase_matching_on_diagonal():
    # on the gamma_s = -gamma_i ray the mismatch vanishes along equal detunings
    params, pump = setting(-math.pi / 4, length=1e4)
    for x in (-30.0, -5.0, 12.0, 40.0):
        got = amplitude(params, pump, OMEGA_P / 2 + x, OMEGA_P / 2 + x)
        assert got == pytest.approx(1e4 * pump_alpha(pump, OMEGA_P + 2 * x), rel=1e-12)


def test_symmetry_axis_of_mismatch_factor():
    # pump factor removed: along (ds, di) = t (-sin, cos) the profile is constant
    for theta in (-math.pi / 4, math.pi / 20, 0.6, -1.2):
        params = PhaseMatchParams(gamma=GAMMA, theta=theta, length=1e4)
        for t in np.linspace(-200.0, 200.0, 9):
            ds, di = -t * math.sin(theta), t * math.cos(theta)
            mism = params.gamma_s * ds + params.gamma_i * di
            assert abs(phi_L(mism, params.length) - params.length) <= 1e-12 * params.length


def test_swap_symmetry_only_on_matched_ray():
    rng = np.random.default_rng(12)
    params, pump = setting(-math.pi / 4, length=1e4)
    ds, di = rng.uniform(-100, 100, (2, 10_000))
    a = np.abs(amplitude(params, pump, OMEGA_P / 2 + ds, OMEGA_P / 2 + di))
    b = np.abs(amplitude(params, pump, OMEGA_P / 2 + di, OMEGA_P / 2 + ds))
    assert np.max(np.abs(a - b)) <= 1e-12 * params.length
    conv = setting(math.pi / 5, length=2e4)
    a = np.abs(amplitude(*conv, OMEGA_P / 2 + ds, OMEGA_P / 2 + di))
    b = np.abs(amplitude(*conv, OMEGA_P / 2 + di, OMEGA_P / 2 + ds))
    assert np.max(np.abs(a - b)) > 1e-3 * conv[0].length


def test_factorization_defects():
    # largest sampled defect |A - S(sum) D(diff)| of the sum/difference split,
    # S the pump envelope and D the phase-matching profile along the
    # difference frequency: exact only on the gamma_s = -gamma_i ray
    def defect(params, pump):
        rng = np.random.default_rng(0)
        half = truncation_halfwidth(params, pump, lobes=3.0, sigmas=4.0)
        ds, di = rng.uniform(-half, half, (2, 2000))
        ws, wi = OMEGA_P / 2 + ds, OMEGA_P / 2 + di
        split = pump_alpha(pump, ws + wi) * phi_L(params.gamma * (ds - di) / math.sqrt(2.0),
                                                   params.length)
        return np.max(np.abs(amplitude(params, pump, ws, wi) - split))

    assert defect(*setting(-math.pi / 4)) <= 1e-12 * 1e3
    assert defect(*setting(0.0)) > 0.0
    assert defect(*setting(math.pi / 20, length=1e4)) > 0.01 * 1e4


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_max_at_degeneracy_and_swap_symmetry():
    for theta, length, bw in ((math.pi / 20, 1e4, 40.0), (-math.pi / 4, 1e4, 40.0),
                              (-math.pi / 4, 1e3, 1.6), (-math.pi / 4, 5e4, 40.0)):
        span = Interval(OMEGA_P / 2 - 60.0, OMEGA_P / 2 + 60.0)
        axis, values = grid(*setting(theta, length=length, bandwidth=bw), span, 41)
        peak = np.unravel_index(np.argmax(values), values.shape)
        assert axis[peak[0]] == pytest.approx(OMEGA_P / 2)
        assert axis[peak[1]] == pytest.approx(OMEGA_P / 2)
    _, values = grid(*setting(-math.pi / 4), Interval(940.0, 1060.0), 33)
    assert np.max(np.abs(values - values.T)) <= 1e-12 * 1e3


def test_grid_anticorrelated_ridge_for_narrow_pump():
    # narrowband pump concentrates the weight along ds = -di
    span = Interval(OMEGA_P / 2 - 40.0, OMEGA_P / 2 + 40.0)
    _, values = grid(*setting(-math.pi / 4, length=1e3, bandwidth=1.6), span, 81)
    anti = np.mean(np.abs(np.diag(np.fliplr(values))))
    diag = np.mean(np.abs(np.diag(values)))
    assert anti > 5.0 * diag


@pytest.mark.parametrize("n, block", [(37, 10), (37, 100), (401, None)],
                         ids=["row-blocks", "two-row-blocks", "closed-products"])
def test_grid_blocks_of_rows_match_one_evaluation(monkeypatch, n, block):
    # one row per block, blocks of two rows with one left over, and the
    # benchmark's 401 x 401 spectrum in the default blocks of 40 rows
    params, pump = setting(0.3, length=2e4)
    if block is not None:
        monkeypatch.setattr(biphoton, "_GRID_BLOCK", block)
    axis, values = grid(params, pump, Interval(OMEGA_P / 2 - 60.0, OMEGA_P / 2 + 60.0), n)
    want = np.abs(amplitude(params, pump, axis[:, None], axis[None, :]))
    assert values.tobytes() == want.tobytes()


def test_grid_memory_stays_within_its_table_and_one_block():
    # the benchmark's spectrum: theta = 0 at the README defaults, 401 x 401
    params, pump = setting(0.0)
    half = truncation_halfwidth(params, pump, lobes=3.0, sigmas=3.0)
    n = 401
    _, peak = traced_peak(
        lambda: grid(params, pump, Interval(OMEGA_P / 2 - half, OMEGA_P / 2 + half), n))
    # the table and its axis, and one block's amplitude temporaries, ~41
    # bytes per block value: 8 float64s per value bound them; the whole
    # table at once held ~5 tables' worth, 6.6 MB here, against 2.0
    assert peak <= 8 * n * (n + 1) + 64 * biphoton._GRID_BLOCK


def test_grid_requires_two_points():
    with pytest.raises(ValueError):
        grid(*setting(0.0), Interval(0.0, 1.0), 1)


# ---------------------------------------------------------------------------
# marginal spectra
# ---------------------------------------------------------------------------

def test_marginals_equal_on_matched_ray():
    params, pump = setting(-math.pi / 4)
    for w in (970.0, 1000.0, 1011.0, 1040.0):
        ms = marginal_spectrum(params, pump, "signal", w)
        mi = marginal_spectrum(params, pump, "idler", w)
        assert ms == pytest.approx(mi, rel=1e-6)


def test_marginals_differ_conventional():
    params, pump = setting(0.0)
    rels = []
    for w in (985.0, 1000.0, 1015.0, 1060.0):
        ms = marginal_spectrum(params, pump, "signal", w)
        mi = marginal_spectrum(params, pump, "idler", w)
        rels.append(abs(ms - mi) / max(ms, mi))
    assert max(rels) > 1e-3


def test_marginal_narrow_pump_approaches_sinc_profile():
    # nearly monochromatic pump: the marginal tracks the squared sinc profile
    params = PhaseMatchParams(gamma=GAMMA, theta=-math.pi / 4, length=1e3)
    omega_f = fluorescence_bandwidth(params)
    pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=omega_f / 100.0)
    profile = tb_amplitude(params)
    ref0 = marginal_spectrum(params, pump, "signal", OMEGA_P / 2)
    for x in (0.2 * omega_f, 0.35 * omega_f):
        got = marginal_spectrum(params, pump, "signal", OMEGA_P / 2 + x) / ref0
        want = (profile(x) / profile(0.0)) ** 2
        assert got == pytest.approx(want, abs=0.01)


@pytest.mark.parametrize("theta, length, narrow", [
    (-math.pi / 4, 1e3, False), (-math.pi / 4, 2e4, False), (0.0, 2e4, False),
    (math.pi / 5, 1e3, False), (-math.pi / 4, 1e3, True), (-math.pi / 6, 2e4, True),
], ids=["matched", "matched_long", "conventional_long", "pi_5", "matched_narrow",
        "minus_pi_6_narrow"])
def test_marginal_matches_scipy_quad(theta, length, narrow):
    from scipy.integrate import quad  # independent oracle, tests only

    params, pump = setting(theta, length)
    if narrow:
        pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=fluorescence_bandwidth(params) / 100.0)
    half = truncation_halfwidth(params, pump)
    lo, hi = OMEGA_P / 2 - half, OMEGA_P / 2 + half
    for w in (OMEGA_P / 2 - 0.3 * half, OMEGA_P / 2, OMEGA_P / 2 + 0.05 * half):
        ridge = OMEGA_P - w
        points = [x for x in (ridge - 8.0 * pump.bandwidth, ridge, ridge + 8.0 * pump.bandwidth)
                  if lo < x < hi]
        for which, f in (("signal", lambda x: amplitude(params, pump, w, x) ** 2),
                         ("idler", lambda x: amplitude(params, pump, x, w) ** 2)):
            want, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=5000, points=points)
            assert marginal_spectrum(params, pump, which, w) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("theta, length, narrow", [
    (-math.pi / 4, 1e3, False), (math.pi / 5, 1e3, False), (-math.pi / 6, 2e4, True),
], ids=["matched", "pi_5", "minus_pi_6_narrow"])
def test_marginal_integrates_the_whole_pump_window_near_the_truncation_edge(theta, length,
                                                                            narrow):
    # near +-half the pump window omega_p - omega +- 8 bw reaches past the
    # truncation half-width; cutting the partner axis there, as the marginal
    # once did, is off by up to 54% at 0.99 half
    from scipy.integrate import quad  # independent oracle, tests only

    params, pump = setting(theta, length)
    if narrow:
        pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=fluorescence_bandwidth(params) / 100.0)
    half = truncation_halfwidth(params, pump)
    for w in OMEGA_P / 2 + half * np.array([-0.99, -0.9, 0.9, 0.99]):
        ridge = OMEGA_P - w
        for which, f in (("signal", lambda x: amplitude(params, pump, w, x) ** 2),
                         ("idler", lambda x: amplitude(params, pump, x, w) ** 2)):
            want, _ = quad(f, ridge - pump.reach, ridge + pump.reach, epsabs=0.0, epsrel=1e-13,
                           limit=5000, points=[ridge])
            assert marginal_spectrum(params, pump, which, w) == pytest.approx(want, rel=1e-10)


def test_marginal_outside_the_pump_window_is_zero():
    params, pump = setting(-math.pi / 4, bandwidth=1.0)
    half = truncation_halfwidth(params, pump)
    assert marginal_spectrum(params, pump, "signal", OMEGA_P / 2 + half + 9.0) == 0.0


@pytest.mark.parametrize("which, partner", [("signal", "idler"), ("idler", "signal")])
def test_marginal_over_the_panel_budget_names_the_axis(which, partner):
    # the partner axis needs 1,872,698 nodes, over PANEL_BUDGET = 327,680
    params, pump = setting(-math.pi / 4, length=1e8, bandwidth=100.0)
    with pytest.raises(NonConvergence, match=re.escape(f"{partner} axis ({which} marginal)")):
        marginal_spectrum(params, pump, which, OMEGA_P / 2)


@pytest.mark.parametrize("which", ["signal", "idler"])
def test_marginal_rejects_nan_omega_and_is_zero_at_infinity(which):
    params, pump = PhaseMatchParams(8e-5, 0.3, 1e3), PumpSpectrum(2000.0, 40.0)
    with pytest.raises(ValueError, match="omega"):
        marginal_spectrum(params, pump, which, float("nan"))
    for omega in (math.inf, -math.inf):
        assert marginal_spectrum(params, pump, which, omega) == 0.0


def test_marginal_keeps_its_density_when_the_trace_densities_change(monkeypatch):
    # the trace builds' oversampling factors belong to interferometry alone: thinning
    # them must thin a fresh fine build and leave every marginal bit alone
    params, pump = setting(0.0, length=2e4)
    omegas = (OMEGA_P / 2 - 20.0, OMEGA_P / 2, OMEGA_P / 2 + 7.0)
    before = [marginal_spectrum(params, pump, which, w)
              for which in ("signal", "idler") for w in omegas]
    dense = interferometry._line_spectra(params, pump, 0.1, "fine", PANEL_BUDGET)[0]
    # halved in place, so an oversampling dict shared with the marginal would change too
    for grade, factor in list(interferometry.OVERSAMPLING.items()):
        monkeypatch.setitem(interferometry.OVERSAMPLING, grade, 0.5 * factor)
    sparse = interferometry._line_spectra(params, pump, 0.1, "fine", PANEL_BUDGET)[0]
    assert all(s < d for s, d in zip(node_counts(sparse), node_counts(dense)))
    after = [marginal_spectrum(params, pump, which, w)
             for which in ("signal", "idler") for w in omegas]
    assert after == before


def test_marginal_rejects_unknown_mode():
    with pytest.raises(ValueError):
        marginal_spectrum(*setting(0.0), "pump", 1000.0)


# ---------------------------------------------------------------------------
# limiting profiles
# ---------------------------------------------------------------------------

def test_limit_profiles():
    params, pump = setting(-math.pi / 4)
    omega_f = fluorescence_bandwidth(params)
    tb = tb_amplitude(params)
    db = db_amplitude(pump)
    # first zero of the anti-correlated profile sits at half the bandwidth
    assert abs(tb(omega_f / 2.0)) < 1e-9 * params.length
    assert abs(tb(0.99 * omega_f / 2.0)) > 1e-3 * params.length
    # correlated profile is the pump envelope at twice the detuning
    for x in (0.0, 7.0, 23.0):
        assert db(x) == pytest.approx(pump_alpha(pump, OMEGA_P + 2 * x), rel=1e-12)
