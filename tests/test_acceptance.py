"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` grades them all the same.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from spdcsim import (
    BellState,
    DispersionModel,
    Interval,
    PhaseMatchParams,
    PolynomialBranch,
    Port,
    PumpSpectrum,
    TraceKind,
    amplitude,
    apply_phase_flip,
    apply_rotator,
    beamsplitter_output,
    check_condition,
    closed_form_params,
    db_amplitude,
    fluorescence_bandwidth,
    hom_rate_closed,
    hom_trace_integral,
    marginal_spectrum,
    mz_rate_closed,
    mz_trace_integral,
    postselect_coincidence,
    solve_epm,
    sweep_visibility,
    tb_amplitude,
    v_hom,
    v_mz,
    validity_bound,
)
from spdcsim.cli import VALIDATION_SETS, main as cli_main
from conftest import near_matched_curvature_cases

OMEGA_P = 2000.0
GAMMA = 8e-5
PUMP = PumpSpectrum(omega_p=OMEGA_P, bandwidth=40.0)
CONVENTIONAL_THETAS = (-math.pi / 5, -math.pi / 6, 0.0, math.pi / 5)


def params_at(theta: float, length: float = 1e3) -> PhaseMatchParams:
    return PhaseMatchParams(gamma=GAMMA, theta=theta, length=length)


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} {text}: PASS")


def test_c01_matched_ray_perfect_dip_visibility():
    start = time.time()
    params = params_at(-math.pi / 4)
    tau_far = 1.3 * closed_form_params(params, PUMP).tau_theta
    for bw in (4.0, 40.0, 120.0):
        pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=bw)
        assert v_hom(closed_form_params(params, pump)) == 1.0
        p0, pf = hom_trace_integral(params, pump, np.array([0.0, tau_far]), tau_max=tau_far)
        v_quad = (pf - p0) / (pf + p0)
        assert v_quad >= 0.999
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"matched-ray dip visibility 1 (closed) and >=0.999 (quadrature), {elapsed:.1f}s")


def test_c02_conventional_dip_visibility_decay():
    start = time.time()
    cfp = closed_form_params(params_at(0.0), PUMP)
    assert cfp.xi == pytest.approx(1.25, rel=1e-12)
    assert v_hom(cfp) == pytest.approx(0.69798, abs=1e-4)
    stacked = sweep_visibility(TraceKind.HOM, params_at(0.0), PUMP, CONVENTIONAL_THETAS,
                               np.linspace(1.0, 120.0, 60))  # rows follow CONVENTIONAL_THETAS
    for vs in stacked:
        assert np.all(np.diff(vs) < 0.0)
    assert np.all(np.diff(stacked, axis=0) < 0.0)  # top-to-bottom ordering everywhere
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"conventional dip visibility 0.69798 at xi=1.25, ordered monotone decay, {elapsed:.1f}s")


def test_c03_fringe_visibility_bound_and_limits():
    start = time.time()
    thetas = (-math.pi / 4,) + CONVENTIONAL_THETAS
    curves = sweep_visibility(TraceKind.MZ, params_at(0.0), PUMP, thetas,
                              np.linspace(1e3, 5e4, 50))
    for theta, vs in zip(thetas, curves):
        assert np.all(vs >= 1.0 / 3.0 - 1e-9)
        assert np.all(vs <= 1.0)
        if theta == -math.pi / 4:
            assert np.all(np.abs(vs - 0.99901) <= 1e-4)
        else:
            assert np.all(np.diff(vs) < 0.0)
            # the 1/3 floor is an asymptotic statement: grade the long-crystal limit
            limit_params = params_at(theta, length=1e9)
            v_limit = v_mz(closed_form_params(limit_params, PUMP))
            assert abs(v_limit - 1.0 / 3.0) <= 0.01
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, f"fringe visibility within [1/3, 1] on sweep, matched ray flat at 0.99901, {elapsed:.1f}s")


def test_c04_closed_form_vs_quadrature_oracle():
    start = time.time()
    worst = 0.0
    for _, kind, theta, length in VALIDATION_SETS:
        params = params_at(theta, length=length)
        cfp = closed_form_params(params, PUMP)
        span = 2.0 * cfp.tau_theta + 8.0 / PUMP.bandwidth
        taus = np.linspace(-span, span, 201)
        if kind is TraceKind.HOM:
            quad = hom_trace_integral(params, PUMP, taus)
            closed = np.array([hom_rate_closed(cfp, t) for t in taus])
        else:
            quad = mz_trace_integral(params, PUMP, taus)
            closed = np.array([mz_rate_closed(cfp, t) for t in taus])
        dev = float(np.max(np.abs(quad - closed)))
        assert dev <= 1e-3, f"{kind} theta={theta} length={length}: dev={dev}"
        if kind is TraceKind.HOM and theta == math.pi / 5:
            assert dev <= 1e-4  # conventional-matching dip rides the oracle this tightly
        worst = max(worst, dev)
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(4, f"six closed-vs-quadrature traces agree to {worst:.1e} <= 1e-3, {elapsed:.0f}s")


def test_c05_dip_geometry():
    params = params_at(-math.pi / 4)
    cfp = closed_form_params(params, PUMP)
    width = 2.0 * cfp.tau_theta
    assert width == pytest.approx(4.0 * math.pi / fluorescence_bandwidth(params), rel=1e-9)
    assert width == pytest.approx(math.sqrt(2.0) * GAMMA * 1e3, rel=1e-9)
    assert width == pytest.approx(0.113137, abs=1e-6)
    assert hom_rate_closed(cfp, cfp.tau_theta * (1.0 + 1e-6)) == 1.0
    assert hom_rate_closed(cfp, cfp.tau_theta * (1.0 - 1e-3)) < 1.0
    report(5, "dip base width 2 tau_theta = 4 pi / bandwidth = 0.113137 ps")


def test_c06_matched_ray_fringe_formula():
    params = params_at(-math.pi / 4)
    cfp = closed_form_params(params, PUMP)
    taus = np.linspace(-0.25, 0.25, 20001)
    closed = np.array([mz_rate_closed(cfp, t) for t in taus])
    gaussian_fringe = 1.0 + np.exp(-(PUMP.bandwidth * taus / 2.0) ** 2) * np.cos(OMEGA_P * taus)
    assert np.max(np.abs(closed - gaussian_fringe)) <= 1e-10

    # fringe period from local maxima of a dense trace
    fringe = 2.0 * math.pi / OMEGA_P
    dense_t = np.arange(0.02, 0.08, fringe / 400.0)
    dense = np.array([mz_rate_closed(cfp, t) for t in dense_t])
    peaks = [k for k in range(1, len(dense) - 1)
             if dense[k] >= dense[k - 1] and dense[k] >= dense[k + 1] and dense[k] > 1.0]
    refined = []
    for k in peaks:
        a, b, c = dense[k - 1], dense[k], dense[k + 1]
        shift = 0.5 * (a - c) / (a - 2 * b + c)
        refined.append(dense_t[k] + shift * (dense_t[1] - dense_t[0]))
    spacing = np.diff(refined)
    assert abs(np.mean(spacing) - fringe) <= 1e-3 * fringe

    # envelope width from the fringe crests: |P - 1| = exp(-bw^2 tau^2 / 4) there
    ks = np.arange(10, 61)
    tk = ks * math.pi / OMEGA_P
    env = np.array([abs(mz_rate_closed(cfp, t) - 1.0) for t in tk])
    slope = np.polyfit(tk**2, np.log(env), 1)[0]
    bw_fit = math.sqrt(-4.0 * slope)
    assert abs(bw_fit - PUMP.bandwidth) <= 1e-3 * PUMP.bandwidth
    report(6, "matched-ray fringe: closed form == Gaussian fringe, period and envelope fit to 0.1%")


def test_c07_amplitude_symmetry_suite():
    rng = np.random.default_rng(2024)
    params = params_at(-math.pi / 4)
    ds, di = rng.uniform(-150.0, 150.0, (2, 10_000))
    a = np.abs(amplitude(params, PUMP, OMEGA_P / 2 + ds, OMEGA_P / 2 + di))
    b = np.abs(amplitude(params, PUMP, OMEGA_P / 2 + di, OMEGA_P / 2 + ds))
    assert np.max(np.abs(a - b)) <= 1e-12 * params.length

    for w in (975.0, 1000.0, 1010.0, 1035.0):
        ms = marginal_spectrum(params, PUMP, "signal", w)
        mi = marginal_spectrum(params, PUMP, "idler", w)
        assert abs(ms - mi) <= 1e-6 * max(ms, mi)

    params0 = params_at(0.0)
    rel = max(abs(marginal_spectrum(params0, PUMP, "signal", w)
                  - marginal_spectrum(params0, PUMP, "idler", w))
              / marginal_spectrum(params0, PUMP, "signal", w) for w in (985.0, 1005.0, 1025.0))
    assert rel > 1e-3
    report(7, "swap symmetry <= 1e-12 L, marginals equal on matched ray, split off it")


def test_c08_limit_state_profiles():
    # anti-correlated limit: narrowband pump, section along opposite detunings
    params = params_at(-math.pi / 4)
    omega_f = fluorescence_bandwidth(params)
    pump_tb = PumpSpectrum(omega_p=OMEGA_P, bandwidth=omega_f / 100.0)
    xs = np.linspace(-0.45 * omega_f, 0.45 * omega_f, 301)
    section = np.abs(amplitude(params, pump_tb, OMEGA_P / 2 + xs, OMEGA_P / 2 - xs))
    want = np.abs(tb_amplitude(params)(xs))
    rms = np.sqrt(np.mean((section / section.max() - want / want.max()) ** 2))
    assert rms <= 0.01

    # correlated limit: long crystal, section along equal detunings
    length_db = 4.0 * math.pi / ((PUMP.bandwidth / 100.0) * GAMMA * math.sqrt(2.0))
    params_db = params_at(-math.pi / 4, length=length_db)
    assert fluorescence_bandwidth(params_db) == pytest.approx(PUMP.bandwidth / 100.0, rel=1e-12)
    xs = np.linspace(-1.2 * PUMP.bandwidth, 1.2 * PUMP.bandwidth, 301)
    section = np.abs(amplitude(params_db, PUMP, OMEGA_P / 2 + xs, OMEGA_P / 2 + xs))
    want = np.abs(db_amplitude(PUMP)(xs))
    rms = np.sqrt(np.mean((section / section.max() - want / want.max()) ** 2))
    assert rms <= 0.01
    report(8, "limit-state sections match sinc / Gaussian profiles within 1% RMS")


def test_c09_solver_and_validity_bound():
    for model, omega_star, zeta_star, om_br, z_br in near_matched_curvature_cases(20):
        omega, zeta = solve_epm(model, om_br, z_br)
        assert abs(omega - omega_star) <= 1e-10 * omega_star
        assert abs(zeta - zeta_star) <= 1e-10 * abs(zeta_star)
        solved = model.with_zeta(zeta)
        for order in (0, 1, 2):
            assert abs(check_condition(solved, omega, order)) <= 1e-10

    mu = 1e-7
    branch = PolynomialBranch([10.0, 5e-3, mu / 2.0])
    model = DispersionModel(k_p=branch, k_s=branch, k_i=branch,
                            validity=Interval(10.0, 8000.0))
    got = validity_bound(model, OMEGA_P, 40.0).l_max
    assert got == pytest.approx(8.0 * math.pi / (mu * 40.0**2), rel=1e-12)
    assert got == pytest.approx(1.5708e5, rel=1e-4)
    report(9, "20 planted models recovered to 1e-10, length bound 1.5708e5 um")


def test_c10_postselection():
    base = beamsplitter_output()
    label, prob = postselect_coincidence(base)
    assert label is BellState.PSI_PLUS and prob == pytest.approx(0.5, abs=1e-15)
    labels = set()
    for state in (base,
                  apply_rotator(base, Port.B),
                  apply_phase_flip(base, Port.B),
                  apply_phase_flip(apply_rotator(base, Port.B), Port.B)):
        lab, p = postselect_coincidence(state)
        assert p == pytest.approx(0.5, abs=1e-12)
        labels.add(lab)
    assert labels == set(BellState)
    report(10, "post-selection gives psi+ at 0.5 and all four Bell states under arm transforms")


def test_c11_cli_determinism(tmp_path, capsys):
    def bytes_of(args, name):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        text = out.read_text()
        capsys.readouterr()
        return text.replace(name, "OUT")

    jobs = {
        "spectrum": ["spectrum", "--grid-steps", "11", "--grid-span", "60"],
        "hom": ["hom", "--tau-steps", "31"],
        "mz": ["mz", "--tau-steps", "31", "--tau-max", "0.05"],
        "visibility": ["visibility", "--kind", "mz", "--sweep-lo", "1e3",
                       "--sweep-hi", "5e4", "--sweep-steps", "9"],
        "validate": ["validate"],
    }
    for name, args in jobs.items():
        first = bytes_of(args, f"{name}_1.csv")
        second = bytes_of(args, f"{name}_2.csv")
        assert first == second, f"{name} output changed between runs"

    quad = ["hom", "--method", "quadrature", "--tau-steps", "9", "--tau-max", "0.08"]
    assert bytes_of(quad, "q1.csv") == bytes_of(quad, "q2.csv"), "quadrature output changed"
    report(11, "byte-identical CSV across repeated runs, quadrature included")
