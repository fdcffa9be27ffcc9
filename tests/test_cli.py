from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdcsim.cli
import spdcsim.interferometry
from spdcsim.cli import main


def run(args, capsys=None):
    rc = main(args)
    return rc


def read(path):
    return path.read_text()


def data_section(text: str) -> str:
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "\n".join(lines[first:])


# ---------------------------------------------------------------------------
# determinism and precedence
# ---------------------------------------------------------------------------

def test_identical_config_gives_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--grid-steps", "11", "--grid-span", "50"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert data_section(read(a)) == data_section(read(b))
    assert read(a).replace("a.csv", "b.csv") == read(b)


@pytest.mark.parametrize("name", ["threads", "rel_tol", "abs_tol"])
def test_threads_flag_and_config_key_are_rejected(tmp_path, capsys, name):
    # flags and config keys that no longer exist
    out = tmp_path / "x.csv"
    flag = "--" + name.replace("_", "-")
    base = ["hom", "--method", "quadrature", "--tau-steps", "9", "--tau-max", "0.1"]
    assert run(base + [flag, "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = 2\n")
    assert run(base + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{name}'" in err and err.count("\n") == 1
    assert not out.exists()


def test_flag_overrides_config_overrides_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pump_bw = 50.0\ntau_steps = 5\n# comment line\n")
    out = tmp_path / "o.csv"
    assert run(["hom", "--config", str(cfg), "--out", str(out)]) == 0
    assert "# pump_bw=50.0" in read(out)
    assert run(["hom", "--config", str(cfg), "--pump-bw", "60", "--out", str(out)]) == 0
    assert "# pump_bw=60.0" in read(out)
    assert run(["hom", "--tau-steps", "5", "--out", str(out)]) == 0
    assert "# pump_bw=40.0" in read(out)  # built-in default


def test_si_units_match_radps_inputs(tmp_path):
    a, b = tmp_path / "radps.csv", tmp_path / "si.csv"
    # grid_span is an angular frequency too
    for command, radps, si in ((["hom", "--tau-steps", "7"], [], []),
                               (["spectrum", "--grid-steps", "3"], ["--grid-span", "60"],
                                ["--grid-span", "6e13"])):
        assert run(command + ["--omega-p", "2000", "--pump-bw", "40", *radps,
                              "--out", str(a)]) == 0
        assert run(command + ["--units", "si", "--omega-p", "2e15", "--pump-bw", "4e13", *si,
                              "--out", str(b)]) == 0
        assert data_section(read(a)) == data_section(read(b))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_mini_grid_golden(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["spectrum", "--grid-steps", "2", "--grid-span", "30",
                "--theta", repr(-math.pi / 4), "--out", str(out)]) == 0

    # independent reconstruction of every byte of the data section
    gs = 8e-5 * math.cos(-math.pi / 4)
    gi = 8e-5 * math.sin(-math.pi / 4)

    def amp(ws, wi):
        alpha = math.exp(-((ws + wi - 2000.0) ** 2) / (2.0 * 40.0**2))
        x = gs * (ws - 1000.0) + gi * (wi - 1000.0)
        y = x * 1e3 / 2.0
        phi = 1e3 if y == 0.0 else 1e3 * math.sin(y) / y
        return abs(alpha * phi)

    rows = ["omega_s,omega_i,abs_A"]
    for ws in (970.0, 1030.0):
        for wi in (970.0, 1030.0):
            rows.append(",".join(format(v, ".9g") for v in (ws, wi, amp(ws, wi))))
    assert data_section(read(out)) == "\n".join(rows)


def test_spectrum_peak_at_degeneracy(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--grid-steps", "21", "--grid-span", "80", "--out", str(out)]) == 0
    body = np.array([[float(tok) for tok in line.split(",")]
                     for line in data_section(read(out)).splitlines()[1:]])
    peak = body[np.argmax(body[:, 2])]
    assert peak[0] == 1000.0 and peak[1] == 1000.0


def test_spectrum_conventional_grid_is_asymmetric(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["spectrum", "--grid-steps", "21", "--grid-span", "80",
                "--theta", repr(math.pi / 20), "--length-um", "1e4", "--out", str(out)]) == 0
    body = np.array([[float(tok) for tok in line.split(",")]
                     for line in data_section(read(out)).splitlines()[1:]])
    vals = body[:, 2].reshape(21, 21)
    assert np.max(np.abs(vals - vals.T)) > 1e-3 * np.max(vals)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_hom_closed_trace_columns(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hom", "--tau-steps", "21", "--out", str(out)]) == 0
    text = read(out)
    lines = data_section(text).splitlines()
    assert lines[0] == "tau_ps,P_closed"
    body = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    mid = body[len(body) // 2]
    assert mid[0] == 0.0 and mid[1] == 0.0  # full-depth dip at zero delay
    assert body[0][1] == 1.0


def test_mz_both_methods_agree(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["mz", "--method", "both", "--tau-steps", "11", "--tau-max", "0.05",
                "--out", str(out)]) == 0
    lines = data_section(read(out)).splitlines()
    assert lines[0] == "tau_ps,P_closed,P_quadrature"
    body = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    assert np.max(np.abs(body[:, 1] - body[:, 2])) <= 1e-3
    assert body[len(body) // 2][1] == 2.0


def test_hom_both_methods_write_no_negative_rate(tmp_path):
    # at the defaults the quadrature dip cancels to rounding at zero delay
    out = tmp_path / "h.csv"
    assert run(["hom", "--method", "both", "--out", str(out)]) == 0
    lines = data_section(read(out)).splitlines()
    assert lines[0] == "tau_ps,P_closed,P_quadrature"
    body = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    assert np.all(body[:, 2] >= 0.0)


def test_narrow_dip_quadrature_fits_the_node_budget(tmp_path):
    # bw tau_theta = 0.13: the fine v axis needs 161,958 nodes, about
    # 2483 (3 + 8 / (bw tau_theta)), under the budget of 327,680
    args = ["hom", "--theta", "-0.02", "--length-um", "553", "--pump-bw", "5.7"]
    columns = []
    for method in ("quadrature", "closed"):
        out = tmp_path / f"{method}.csv"
        assert run(args + ["--method", method, "--out", str(out)]) == 0
        lines = data_section(read(out)).splitlines()
        assert lines[0] == f"tau_ps,P_{method}"
        columns.append(np.array([float(line.split(",")[1]) for line in lines[1:]]))
    quadrature, closed = columns
    assert np.max(np.abs(quadrature - closed)) <= 1e-3


def test_mz_default_grid_samples_fringes(tmp_path):
    out = tmp_path / "mf.csv"
    assert run(["mz", "--tau-max", "0.01", "--out", str(out)]) == 0
    lines = data_section(read(out)).splitlines()
    n = len(lines) - 1
    fringe = 2.0 * math.pi / 2000.0
    assert n >= 2 * 0.01 / fringe * 40.0


def test_validate_sums_every_trace_by_chirp_z_transforms(tmp_path, monkeypatch, capsys):
    # at these inputs (a jittered benchmark setting) delays scaled from a
    # grid on [-1, 1] would miss the uniform-grid test by 2.5 ulp and be
    # summed directly.  Each build, the fine one at the full and the check
    # reach and the coarse one at the check reach, has one comb for a dip
    # and two for a fringe, but on the matched ray (epm) the fringe keeps
    # its u comb alone: 3 x 3 + 2 x 3 x 2 + 3 = 24 combs, each a row of one
    # transform.  The fine build's two fringe u combs share their lines and
    # one transform, so 21 transforms sum them
    calls, transform = [], spdcsim.interferometry._chirp_z_cos_sums

    def counted(freq, weights, d, tau_c, n):
        calls.append((n, len(np.atleast_2d(weights))))
        return transform(freq, weights, d, tau_c, n)

    monkeypatch.setattr(spdcsim.interferometry, "_chirp_z_cos_sums", counted)
    assert run(["validate", "--omega-p", "2001.0848754462204", "--pump-bw", "40.666227839793684",
                "--gamma", "8.07138097800132e-05", "--out", str(tmp_path / "v.csv")]) == 0
    capsys.readouterr()
    assert {n for n, _ in calls} == {201}
    assert len(calls) == 21 and sum(rows for _, rows in calls) == 24


# the validate fringe sets on the mz command's own default grid, at least 40
# delays per fringe period (7975, 14,108 and 60,751 delays), where the
# 201-delay validate grids sample a period 1.003, 0.567 and 0.132 times.
# Bounds as (whole grid, delays within an eighth of a period of a fringe
# minimum, where the visibility is read): the measured maxima were 6.1e-14
# and 3.4e-14 at epm, rounding of the transforms, whose accuracy of 1e-12
# bounds both; and, set by v-axis truncation (ROADMAP item 2), 7.5e-5 and
# 6.1e-5 at conv_pos and 9.0e-5 and 5.6e-5 at conv_neg, each bounded at
# twice its measured value rounded up to two digits
_FRINGE_DENSITY_BOUNDS = {"epm_mz": (1e-12, 1e-12), "conv_mz_pos": (1.5e-4, 1.3e-4),
                          "conv_mz_neg": (1.8e-4, 1.2e-4)}


@pytest.mark.parametrize("name, theta, length", [
    (name, theta, length) for name, kind, theta, length in spdcsim.cli.VALIDATION_SETS
    if kind is spdcsim.interferometry.TraceKind.MZ], ids=list(_FRINGE_DENSITY_BOUNDS))
def test_oracle_checks_every_fringe_phase_at_the_cli_density(name, theta, length):
    from spdcsim.interferometry import TraceKind, closed_form_params, mz_rate_closed

    cfg = spdcsim.cli.RunConfig(theta=theta, length_um=length)
    taus = spdcsim.cli._tau_grid(cfg, TraceKind.MZ)
    assert len(taus) >= 40 * cfg.omega_p * (taus[-1] - taus[0]) / (2.0 * math.pi)
    dev = np.abs(spdcsim.interferometry.mz_trace_integral(cfg.params, cfg.pump, taus)
                 - mz_rate_closed(closed_form_params(cfg.params, cfg.pump), taus))
    near_minimum = np.abs(np.mod(cfg.omega_p * taus, 2.0 * math.pi) - math.pi) <= math.pi / 4.0
    measured = (float(dev.max()), float(dev[near_minimum].max()))
    assert all(m <= b for m, b in zip(measured, _FRINGE_DENSITY_BOUNDS[name])), measured


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------

def test_visibility_rows(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["visibility", "--kind", "hom", "--sweep-lo", "0.4", "--sweep-hi", "120",
                "--sweep-steps", "7", "--out", str(out)]) == 0
    lines = data_section(read(out)).splitlines()
    assert lines[0] == "sweep_value,theta,visibility"
    body = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    assert len(body) == 7 * 5  # one row per (sweep point, theta)
    matched = body[np.isclose(body[:, 1], -math.pi / 4)]
    assert np.all(matched[:, 2] == 1.0)
    # smallest bandwidth end: every curve near 1
    first = body[np.isclose(body[:, 0], 0.4)]
    assert np.all(first[:, 2] > 0.99)


@pytest.mark.parametrize("kind, swept", [("hom", "pump_bandwidth"), ("mz", "crystal_length")])
def test_visibility_rows_are_sweep_major_closed_form_values(tmp_path, kind, swept):
    # the unswept parameter is off its default, so a sweep that read the
    # wrong one, or rows in theta-major order, changes the bytes
    from spdcsim import PhaseMatchParams, PumpSpectrum, closed_form_params, v_hom, v_mz

    thetas = (-0.5, 0.1, 0.7)
    lo, hi, steps = (5.0, 200.0, 4) if kind == "hom" else (1e3, 5e4, 5)
    out = tmp_path / "v.csv"
    assert run(["visibility", "--kind", kind, "--sweep-lo", str(lo), "--sweep-hi", str(hi),
                "--sweep-steps", str(steps), "--thetas", "-0.5,0.1,0.7", "--length-um", "3e3",
                "--pump-bw", "25", "--out", str(out)]) == 0
    rows = ["sweep_value,theta,visibility"]
    for x in np.linspace(lo, hi, steps):
        for theta in thetas:
            if kind == "hom":
                cfp = closed_form_params(PhaseMatchParams(8e-5, theta, 3e3),
                                         PumpSpectrum(2000.0, float(x)))
                v = v_hom(cfp)
            else:
                cfp = closed_form_params(PhaseMatchParams(8e-5, theta, float(x)),
                                         PumpSpectrum(2000.0, 25.0))
                v = v_mz(cfp)
            rows.append(",".join(format(float(t), ".9g") for t in (x, theta, v)))
    text = read(out)
    assert data_section(text) == "\n".join(rows)
    assert f"# swept={swept!r}" in text.splitlines()


def test_write_csv_matches_per_value_format(tmp_path):
    specials = [-0.0, 5e-324, 1.5e22, 1000.0, 0.1, 2.5e-310, 123456789012.0, 1e-5]
    # 8 rows, and 8 * 257 rows: two full 1024-row blocks and a partial one
    for repeats in (1, 257):
        values = np.tile(specials, repeats)
        columns = {"a": values, "b": values[::-1], "c": np.arange(len(values), dtype=float)}
        out = tmp_path / "w.csv"
        spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(out)), "hom", {"extra": 1}, columns)
        expected = ["a,b,c"] + [",".join(format(float(x), ".9g") for x in row)
                                for row in zip(*columns.values())]
        text = read(out)
        assert text.endswith("\n") and "# extra=1" in text.splitlines()
        assert data_section(text) == "\n".join(expected)


def _axis(n):
    # the special values first, then distinct ones; -0.0 and 0.0 give
    # different text, as do the two subnormals
    axis = np.resize([-0.0, 0.0, 5e-324, 2.5e-310, 1.5e22, 1000.0, 0.1, 1e-5], n)
    axis[8:] += np.arange(8, n)
    return axis


@pytest.mark.parametrize("inner", [1, 8, 40, 1024, 1025], ids=lambda n: f"{n}-point-inner-axis")
def test_write_csv_matches_per_value_format_on_grids(tmp_path, inner):
    # 1, 8 and 40 points put several grid rows in each block and leave the
    # last block short, 1024 fill one block per grid row, and 1025 make a
    # grid row longer than a block
    outer = _axis(max(9, 2600 // inner))
    values = np.arange(len(outer) * inner, dtype=float).reshape(len(outer), inner) / 7.0
    out = tmp_path / "w.csv"
    spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(out)), "spectrum", None,
                           {"s": outer, "i": _axis(inner), "v": values})
    rows = zip(np.repeat(outer, inner), np.tile(_axis(inner), len(outer)), values.ravel())
    expected = ["s,i,v"] + [",".join(format(float(x), ".9g") for x in row) for row in rows]
    assert data_section(read(out)) == "\n".join(expected)


def _outer_product_columns(axis, rows):
    # spectrum-shaped: the first column runs over the axis, the second tiles
    # it, and "odd" tiles it too but for one value in its last run
    n = len(axis)
    odd = np.tile(axis, n)[:rows]
    odd[-2] = 7.0
    return {"s": np.repeat(axis, n)[:rows], "i": np.tile(axis, n)[:rows],
            "v": np.arange(rows, dtype=float) / 7.0, "odd": odd}


@pytest.mark.parametrize("repeats", [1, 5], ids=["8-point-axis", "40-point-axis"])
@pytest.mark.parametrize("cut", [0, 3], ids=["whole-runs", "short-last-run"])
def test_write_csv_matches_per_value_format_on_repeated_columns(tmp_path, repeats, cut):
    # a grid spelled out as repeated 1-D columns is a plain table; 40 x 40
    # rows span two 1024-row blocks, and a whole grid written as axes and a
    # 2-D table gives the same bytes as its spelled-out columns
    axis = _axis(8 * repeats)
    columns = _outer_product_columns(axis, len(axis) ** 2 - cut)
    out = tmp_path / "w.csv"
    spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(out)), "spectrum", None, columns)
    expected = [",".join(columns)] + [",".join(format(float(x), ".9g") for x in row)
                                      for row in zip(*columns.values())]
    assert data_section(read(out)) == "\n".join(expected)
    if cut == 0:
        spelled = {k: columns[k] for k in "siv"}
        spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(out)), "spectrum", None, spelled)
        grid = {"s": axis, "i": axis, "v": columns["v"].reshape(len(axis), len(axis))}
        spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(tmp_path / "g.csv")), "spectrum",
                               None, grid)
        assert data_section(read(tmp_path / "g.csv")) == data_section(read(out))


@pytest.mark.parametrize("first",[[1.0, 1.0, 2.0, 2.0, 2.0, 3.0], [0.0, 0.0, -0.0, -0.0, 0.0, 0.0],
                                   [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 2.0, 2.0, 2.0]],
                         ids=["uneven-runs", "signed-zeros", "one-run", "first-run-of-one"])
def test_write_csv_bakes_only_whole_runs_of_the_first_column(tmp_path, first):
    columns = {"a": np.array(first), "b": np.array([0.0, -0.0] * 3), "c": np.arange(6.0)}
    out = tmp_path / "w.csv"
    spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(out)), "hom", None, columns)
    expected = ["a,b,c"] + [",".join(format(float(x), ".9g") for x in row)
                            for row in zip(*columns.values())]
    assert data_section(read(out)) == "\n".join(expected)


def test_visibility_mz_bound(tmp_path):
    out = tmp_path / "vm.csv"
    assert run(["visibility", "--kind", "mz", "--sweep-lo", "1e3", "--sweep-hi", "5e4",
                "--sweep-steps", "9", "--out", str(out)]) == 0
    body = np.array([[float(t) for t in line.split(",")]
                     for line in data_section(read(out)).splitlines()[1:]])
    assert np.all(body[:, 2] >= 1.0 / 3.0 - 1e-9)
    assert np.all(body[:, 2] <= 1.0)


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------

def planted_crystal_text() -> str:
    s = [10.0, 5e-3, 1e-9]
    i0, i2 = 10.3, -1e-9
    two_gs = 2.0 * 8e-5 / math.sqrt(2.0)
    i1 = s[1] + 2000.0 * (s[2] - i2) + two_gs
    i = [i0, i1, i2]
    t2 = 2e-9
    ks1 = s[1] + 2.0 * s[2] * 1000.0
    ki1 = i[1] + 2.0 * i[2] * 1000.0
    t1 = 0.5 * (ks1 + ki1) - 2.0 * t2 * 2000.0
    ks0 = s[0] + s[1] * 1000.0 + s[2] * 1e6
    ki0 = i[0] + i[1] * 1000.0 + i[2] * 1e6
    t0 = ks0 + ki0 - t1 * 2000.0 - t2 * 4e6
    zeta_star = 1e-4
    lines = [
        "# planted crystal with a joint matching point at 2000 rad/ps",
        f"branch.p.c0 = {t0 - zeta_star!r}",
        f"branch.p.c1 = {t1!r}",
        f"branch.p.c2 = {t2!r}",
        f"branch.s.c0 = {s[0]!r}",
        f"branch.s.c1 = {s[1]!r}",
        f"branch.s.c2 = {s[2]!r}",
        f"branch.i.c0 = {i[0]!r}",
        f"branch.i.c1 = {i[1]!r}",
        f"branch.i.c2 = {i[2]!r}",
        "validity.lo = 10",
        "validity.hi = 8000",
        "knob.branch = p",
        "knob.order = 0",
    ]
    return "\n".join(lines) + "\n"


def test_match_planted_crystal(tmp_path, capsys):
    crystal = tmp_path / "crystal.txt"
    crystal.write_text(planted_crystal_text())
    rc = run(["match", "--crystal", str(crystal), "--omega-lo", "1600", "--omega-hi", "2400",
              "--zeta-lo", "-0.01", "--zeta-hi", "0.01", "--length-um", "1e4"])
    assert rc == 0
    report = {line.split(" = ")[0]: line.split(" = ")[1].split()[0]
              for line in capsys.readouterr().out.strip().splitlines()}
    assert abs(float(report["omega_p"]) - 2000.0) < 1e-6
    assert abs(float(report["zeta"]) - 1e-4) < 1e-12
    assert abs(float(report["theta"]) + math.pi / 4) < 1e-8
    assert abs(float(report["gamma"]) - 8e-5) < 1e-12
    assert abs(float(report["residual_order0"])) < 1e-10
    assert abs(float(report["residual_order1"])) < 1e-10
    assert float(report["omega_f"]) > 0.0
    assert float(report["l_max"]) > 0.0


DEGENERATE_LINE = ("gamma = degenerate (gamma_s, gamma_i not of opposite sign: "
                   "each within 2|residual_order1| of 0)")


def test_match_vacuum_like_crystal(tmp_path, capsys):
    c = 299.792458
    crystal = tmp_path / "vacuum.txt"
    crystal.write_text(
        f"branch.p.c0 = 0.0\nbranch.p.c1 = {1.0 / c!r}\n"
        f"branch.s.c0 = 0.0\nbranch.s.c1 = {1.0 / c!r}\n"
        f"branch.i.c0 = 0.0\nbranch.i.c1 = {1.0 / c!r}\n"
        "validity.lo = 10\nvalidity.hi = 8000\n")
    rc = run(["match", "--crystal", str(crystal), "--omega-lo", "1600", "--omega-hi", "2400",
              "--zeta-lo", "-1", "--zeta-hi", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for order in range(4):
        line = next(l for l in out.splitlines() if l.startswith(f"residual_order{order}"))
        assert abs(float(line.split(" = ")[1])) < 1e-12
    assert "l_max = inf (zero curvature)" in out
    assert DEGENERATE_LINE in out.splitlines()


def test_match_identical_signal_and_idler_branches(tmp_path, capsys):
    # gamma_s and gamma_i are equal by construction, and the order-1 root
    # leaves both at rounding level, not exactly zero: they share a sign, so
    # the report gives neither a direction nor a bandwidth
    crystal = tmp_path / "twin.txt"
    crystal.write_text(
        "branch.p.c0 = 20\nbranch.p.c1 = 0.0101\nbranch.p.c2 = 2e-9\n"
        "branch.s.c0 = 10\nbranch.s.c1 = 5e-3\nbranch.s.c2 = 1.3e-6\n"
        "branch.i.c0 = 10\nbranch.i.c1 = 5e-3\nbranch.i.c2 = 1.3e-6\n"
        "validity.lo = 10\nvalidity.hi = 8000\nknob.branch = p\nknob.order = 0\n")
    rc = run(["match", "--crystal", str(crystal), "--omega-lo", "100", "--omega-hi", "7000",
              "--zeta-lo", "-30", "--zeta-hi", "30"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert DEGENERATE_LINE in lines
    assert not [l for l in lines if l.startswith(("theta =", "omega_f ="))]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_match_explicit_out_writes_report(tmp_path, monkeypatch, capsys, source):
    monkeypatch.chdir(tmp_path)
    Path("crystal.txt").write_text(planted_crystal_text())
    args = ["match", "--crystal", "crystal.txt", "--omega-lo", "1600", "--omega-hi", "2400",
            "--zeta-lo", "-0.01", "--zeta-hi", "0.01"]
    assert run(args) == 0
    report = capsys.readouterr().out
    assert not Path("out.csv").exists()  # no out anywhere: the report goes to stdout only
    if source == "config":
        Path("run.cfg").write_text("out = out.csv\n")
        args += ["--config", "run.cfg"]
    else:
        args += ["--out", "out.csv"]
    assert run(args) == 0
    assert capsys.readouterr().out == report
    assert Path("out.csv").read_text() == report


@pytest.mark.parametrize("args", [
    # the u axis of a 1 m crystal needs about 15 million nodes, far over the budget
    ["hom", "--method", "quadrature", "--tau-steps", "5", "--length-um", "1e9"],
    # gamma * length = 1e307 is finite, but the u axis node count is not
    ["hom", "--method", "quadrature", "--gamma", "1e300", "--length-um", "1e7", "--theta", "0.3",
     "--tau-max", "1", "--tau-steps", "3"],
    ["mz", "--method", "quadrature", "--gamma", "1e300", "--length-um", "1e7", "--theta", "0.3",
     "--tau-max", "1", "--tau-steps", "3"],
    # the v axis needs 7e299 to 9e306 nodes: finite, but 300 digits as an integer
    ["hom", "--method", "quadrature", "--pump-bw", "1e-300"],
    ["mz", "--method", "quadrature", "--gamma", "1e-300"],
    ["hom", "--method", "quadrature", "--length-um", "1e-300"],
], ids=["long-crystal", "hom-infinite-count", "mz-infinite-count", "hom-huge-count-bw",
        "mz-huge-count-gamma", "hom-huge-count-length"])
def test_quadrature_nonconvergence_exits_two(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    rc = run(args + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert err.count("\n") == 1 and len(err) < 160
    assert not out.exists()


def test_fringe_quadrature_on_the_equal_gamma_ray_points_to_the_closed_form(tmp_path, capsys):
    # the closed fringe form covers gamma_s = gamma_i; the quadrature route does not
    out = tmp_path / "x.csv"
    rc = run(["mz", "--method", "quadrature", "--theta", "0.7853981633974483", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: gamma_s = gamma_i: the quadrature route does not cover this ray; "
                   "--method closed does for the fringe trace\n")
    assert not out.exists()
    assert run(["mz", "--method", "closed", "--theta", "0.7853981633974483",
                "--out", str(out)]) == 0


def test_match_without_crossing_exits_one(tmp_path, capsys):
    crystal = tmp_path / "flat.txt"
    crystal.write_text(
        "branch.p.c0 = 1.0\nbranch.p.c1 = 6e-3\n"
        "branch.s.c0 = 1.0\nbranch.s.c1 = 5e-3\n"
        "branch.i.c0 = 1.0\nbranch.i.c1 = 5e-3\n"
        "validity.lo = 10\nvalidity.hi = 8000\n")
    rc = run(["match", "--crystal", str(crystal), "--omega-lo", "1600", "--omega-hi", "2400",
              "--zeta-lo", "-1", "--zeta-hi", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes and validation
# ---------------------------------------------------------------------------

def test_invalid_input_exits_one(tmp_path, capsys):
    assert run(["hom", "--gamma", "-1", "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["visibility", "--out", str(tmp_path / "y.csv")]) == 1  # missing sweep
    assert run(["hom", "--method", "nope"]) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 3\n")
    assert run(["hom", "--config", str(cfg)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--pump-bw", "nan"), ("--length-um", "inf")])
def test_non_finite_input_exits_one(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    assert run(["hom", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("tiny", ["1e-300", "1e-160"])
def test_spectrum_with_a_lobe_that_is_not_finite_exits_one(tmp_path, capsys, tiny):
    # gamma * length underflows to 0 (1e-300) or to a subnormal whose lobe overflows (1e-160)
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--gamma", tiny, "--length-um", tiny, "--grid-steps", "3",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "gamma" in err and "length_um" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["hom", "--tau-max", "-0.1", "--tau-steps", "5"],
    ["mz", "--tau-max", "0", "--tau-steps", "3", "--method", "both"],
], ids=["hom-negative", "mz-zero"])
def test_non_positive_tau_max_exits_one(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tau_max must be > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("span", ["-1", "0"])
def test_non_positive_grid_span_exits_one(tmp_path, capsys, source, span):
    out = tmp_path / "s.csv"
    args = ["spectrum", "--grid-steps", "5", "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid_span = {span}\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--grid-span", span]
    assert run(args) == 1
    assert capsys.readouterr().err == "error: grid_span must be > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_thetas_exits_one(tmp_path, capsys, source):
    out = tmp_path / "v.csv"
    args = ["visibility", "--sweep-lo", "5", "--sweep-hi", "200", "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("thetas =\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--thetas", ""]
    assert run(args) == 1
    assert capsys.readouterr().err == "error: thetas must not be empty\n"
    assert not out.exists()


def test_config_value_that_does_not_parse_names_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = abc\n")
    assert run(["hom", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: gamma: could not convert string to float: 'abc'\n")


@pytest.mark.parametrize("what", ["config", "crystal"])
def test_key_given_twice_names_file_line_and_key(tmp_path, capsys, what):
    # a repeated key is an error, not a silent override by the later value
    path, out = tmp_path / f"{what}.txt", tmp_path / "x.csv"
    if what == "config":
        text, key = "theta = 0.3\n# overridden below\n", "theta"
        args = ["hom", "--config", str(path), "--out", str(out)]
    else:
        text, key = planted_crystal_text(), "knob.order"
        args = ["match", "--crystal", str(path), *_BRACKETS, "--out", str(out)]
    lineno = len(text.splitlines()) + 1
    path.write_text(text + f"{key} = 0.1\n")
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: key {key!r} given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("replaced, key, value, message", [
    ("branch.p.c0", "branch.p.c0", "abc", "could not convert string to float: 'abc'"),
    ("branch.p.c2", "branch.p.cx", "1", "invalid literal for int() with base 10: 'x'"),
    ("knob.order", "knob.order", "z", "invalid literal for int() with base 10: 'z'"),
    ("branch.s.c2", "branch.s.c-1", "5", "coefficient order must be >= 0, got -1"),
], ids=["coefficient", "order", "knob-order", "negative-order"])
def test_crystal_value_that_does_not_parse_names_file_and_key(tmp_path, capsys, replaced, key,
                                                              value, message):
    crystal = tmp_path / "crystal.txt"
    crystal.write_text("".join(f"{key} = {value}\n" if line.startswith(replaced + " ") else line
                               for line in planted_crystal_text().splitlines(keepends=True)))
    rc = run(["match", "--crystal", str(crystal), "--omega-lo", "1600", "--omega-hi", "2400",
              "--zeta-lo", "-0.01", "--zeta-hi", "0.01"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {crystal}: {key}: {message}\n"


def test_negative_angle_list_parses_as_a_value(tmp_path):
    # argparse reads "-0.5,0.1" as an option unless the parser says otherwise;
    # a plain negative number such as --tau-max -0.1 still reaches
    # RunConfig.validate (test_non_positive_tau_max_exits_one)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("thetas = -0.5,0.1\n")
    base = ["visibility", "--sweep-lo", "5", "--sweep-hi", "200", "--sweep-steps", "3"]
    lines = []
    for name, extra in (("flag.csv", ["--thetas", "-0.5,0.1"]),
                        ("config.csv", ["--config", str(cfg)])):
        assert run(base + extra + ["--out", str(tmp_path / name)]) == 0
        lines.append([l for l in read(tmp_path / name).splitlines() if l.startswith("# thetas=")])
    assert lines[0] == lines[1] == ["# thetas='-0.5,0.1'"]
    assert data_section(read(tmp_path / "flag.csv")) == data_section(read(tmp_path / "config.csv"))


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind, settings, message", [
    ("hom", {"sweep_lo": "5", "sweep_hi": "200", "sweep_steps": "1"}, "sweep_steps must be >= 2"),
    ("hom", {"sweep_lo": "-5", "sweep_hi": "200"}, "sweep_lo must be > 0"),
    ("hom", {"sweep_lo": "0", "sweep_hi": "200"}, "sweep_lo must be > 0"),
    ("mz", {"sweep_lo": "0", "sweep_hi": "200"}, "sweep_lo must be > 0"),
    ("hom", {"sweep_lo": "5e4", "sweep_hi": "1e3"}, "sweep_lo must be < sweep_hi"),
], ids=["one-step", "negative-lo", "zero-lo-hom", "zero-lo-mz", "reversed"])
def test_bad_sweep_exits_one(tmp_path, capsys, source, kind, settings, message):
    out = tmp_path / "v.csv"
    args = ["visibility", "--kind", kind, "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        args += ["--config", str(cfg)]
    else:
        for k, v in settings.items():
            args += ["--" + k.replace("_", "-"), v]
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, settings, key, reason", [
    ("hom", {"tau_max": "1e308", "tau_steps": "3"}, "tau_max", "not finite"),
    ("mz", {"tau_max": "1e308"}, "tau_max", "not finite"),
    ("spectrum", {"grid_span": "1e308", "grid_steps": "3"}, "grid_span", "not finite"),
    ("mz", {"omega_p": "1e308"}, "omega_p", "not finite"),
    # each of these would ask numpy for tens of GiB or more
    ("mz", {"tau_max": "1e6"}, "tau_max", "more than 10000000"),
    ("mz", {"tau_max": "1e300"}, "tau_max", "more than 10000000"),
    ("hom", {"tau_steps": "25000000000"}, "tau_steps", "more than 10000000"),
    ("spectrum", {"grid_steps": "100000"}, "grid_steps", "more than 10000000"),
    ("visibility", {"sweep_lo": "5", "sweep_hi": "200", "sweep_steps": "2000001"},
     "sweep_steps", "more than 10000000"),
], ids=["hom-window", "mz-window", "spectrum-window", "mz-fringe-steps", "mz-fringe-grid",
        "mz-huge-fringe-grid", "hom-grid", "spectrum-grid", "sweep-grid"])
def test_overflowing_window_exits_one(tmp_path, capsys, source, command, settings, key, reason):
    out = tmp_path / "x.csv"
    args = [command, "--out", str(out)]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        args += ["--config", str(cfg)]
    else:
        for k, v in settings.items():
            args += ["--" + k.replace("_", "-"), v]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} = ") and reason in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("what", ["config", "crystal"])
def test_missing_input_file_is_named_by_kind(tmp_path, capsys, what):
    missing = tmp_path / "missing.txt"
    if what == "config":
        args = ["hom", "--config", str(missing), "--out", str(tmp_path / "x.csv")]
    else:
        args = ["match", "--crystal", str(missing), "--omega-lo", "1", "--omega-hi", "2",
                "--zeta-lo", "0", "--zeta-hi", "1"]
    assert run(args) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {what} file {missing}: ")


def test_si_units_half_sweep_exits_one(tmp_path, capsys):
    rc = run(["visibility", "--units", "si", "--sweep-lo", "1e12",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: visibility needs sweep_lo and sweep_hi\n"


@pytest.mark.parametrize("args, message", [
    (["hom", "--pump-bw", "1e-320"], "delay span"),
    (["hom", "--pump-bw", "5e-308", "--tau-steps", "3"], "delay span"),
    (["mz", "--pump-bw", "1e-320"], "delay span"),
    (["mz", "--pump-bw", "1e-320", "--tau-steps", "5"], "delay span"),
    (["validate", "--pump-bw", "1e-320"], "delay span"),
    (["hom", "--gamma", "1e305", "--length-um", "1e5", "--tau-steps", "3"], "gamma * length"),
    (["hom", "--method", "quadrature", "--gamma", "1e305", "--length-um", "1e5", "--theta", "0.3",
      "--tau-max", "1", "--tau-steps", "3"], "gamma * length"),
    (["mz", "--gamma", "1e300", "--length-um", "1e7", "--theta", "0.3", "--tau-max", "1",
      "--tau-steps", "3"], "pump bandwidth * gamma * length"),
    (["visibility", "--kind", "hom", "--gamma", "1e300", "--length-um", "1e7", "--sweep-lo", "5",
      "--sweep-hi", "200", "--sweep-steps", "2"], "pump bandwidth * gamma * length"),
    (["hom", "--pump-bw", "1e-320", "--gamma", "1e-10", "--theta", "0", "--tau-max", "1",
      "--tau-steps", "3"], "pump bandwidth * gamma * length"),
    (["mz", "--omega-p", "1e300", "--tau-max", "1e10", "--tau-steps", "3"],
     "fringe phase omega_p * tau_max = 1e+300 * 10000000000.0 is not finite\n"),
    (["mz", "--omega-p", "1e300", "--tau-max", "1e10", "--tau-steps", "3", "--method", "both"],
     "fringe phase omega_p * tau_max = 1e+300 * 10000000000.0 is not finite\n"),
    (["spectrum", "--omega-p", "1e300", "--grid-steps", "3"],
     "grid_span = 333.2162203618775 around omega_p / 2 = 5e+299 rounds to one point\n"),
    (["spectrum", "--grid-span", "1e-300", "--grid-steps", "3"],
     "grid_span = 1e-300 around omega_p / 2 = 1000.0 rounds to one point\n"),
    (["visibility", "--kind", "mz", "--omega-p", "1e-310", "--sweep-lo", "1e3", "--sweep-hi", "2e3",
      "--sweep-steps", "2"],
     "omega_p = 1e-310 gives half a fringe period pi / omega_p that is not finite\n"),
    (["hom", "--gamma", "1e-200", "--length-um", "1e-200", "--method", "quadrature"],
     "tau_theta = |gamma_s - gamma_i| L / 2 = 0: the quadrature route does not cover"),
    (["mz", "--gamma", "1e-200", "--length-um", "1e-200", "--method", "quadrature"],
     "tau_theta = |gamma_s - gamma_i| L / 2 = 0: the quadrature route does not cover"),
    (["mz", "--gamma", "1e-200", "--length-um", "1e-200", "--method", "both", "--tau-steps", "5"],
     "tau_theta = |gamma_s - gamma_i| L / 2 = 0: the quadrature route does not cover"),
], ids=["hom-span-inf", "hom-window-inf", "mz-span", "mz-span-steps", "validate-span",
        "hom-gl", "hom-quadrature-gl", "mz-width", "visibility-width", "hom-width-zero",
        "mz-phase", "mz-phase-both", "spectrum-center-point", "spectrum-span-point",
        "visibility-half-period", "hom-quadrature-tau-theta-zero", "mz-quadrature-tau-theta-zero",
        "mz-both-tau-theta-zero"])
def test_overflowing_derived_scale_exits_one(tmp_path, capsys, args, message):
    # each setting is finite and positive, but a scale derived from it is
    # inf or 0, or a window rounds to one point: a CSV of nan, a division by
    # zero, a math domain error or an unnamed interval error without the guards
    out = tmp_path / "x.csv"
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_spectrum_infinite_grid_phase_exits_one(tmp_path, capsys):
    # gamma * length = 1e307 is finite, but its product with the ~100 rad/ps
    # detunings of the grid is not: a CSV of nan without the guard
    out = tmp_path / "x.csv"
    assert run(["spectrum", "--gamma", "1e300", "--length-um", "1e7", "--grid-steps", "3",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: largest grid phase") and err.count("\n") == 1
    assert not out.exists()


def test_spectrum_large_finite_grid_phase_warns_nothing(tmp_path):
    # the phases reach ~5e307: finite, and phi_L must take their sine and
    # divide by them without a RuntimeWarning (which fails the test)
    out = tmp_path / "x.csv"
    assert run(["spectrum", "--gamma", "1e299", "--length-um", "1e7", "--grid-steps", "3",
                "--out", str(out)]) == 0
    assert "nan" not in read(out)


@pytest.mark.parametrize("bw", ["1e-300", "1e-320"])
def test_spectrum_near_monochromatic_pump_warns_nothing(tmp_path, capsys, bw):
    # the pump envelope's (detuning / bandwidth)^2 overflows to inf across
    # the grid, and at 1e-320 the quotient itself; exp(-inf) = 0 is the exact
    # limit (a RuntimeWarning fails the test)
    out = tmp_path / "x.csv"
    assert run(["spectrum", "--pump-bw", bw, "--grid-steps", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in read(out)


@pytest.mark.parametrize("args", [
    ["mz", "--pump-bw", "1e300"],
    ["mz", "--tau-max", "1e300", "--tau-steps", "5"],
    ["mz", "--pump-bw", "1e300", "--tau-max", "1e10", "--tau-steps", "3"],
    ["mz", "--theta", repr(math.pi / 4), "--tau-max", "1e300", "--tau-steps", "5"],
], ids=["wide-pump", "far-delays", "wide-pump-far-delays", "equal-gamma-far-delays"])
def test_closed_fringe_far_out_warns_nothing(tmp_path, capsys, args):
    # (bw tau / 2)^2 overflows to inf, and exp(-inf) = 0 is the exact limit;
    # on the gamma_s = gamma_i ray q2 = 0 must not turn it into inf * 0 = nan
    # (a RuntimeWarning fails the test)
    out = tmp_path / "x.csv"
    assert run(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "nan" not in read(out)


_BRACKETS = ["--omega-lo", "1600", "--omega-hi", "2400", "--zeta-lo", "-0.01", "--zeta-hi", "0.01"]
_BRANCHES = "branch.p.c0 = 1\nbranch.s.c0 = 1\nbranch.i.c0 = 1\n"
_VALIDITY = "validity.lo = 1\nvalidity.hi = 2\n"


@pytest.mark.parametrize("args, crystal, message", [
    (["hom", "--theta", "4"], None, "theta must lie in (-pi, pi]"),
    (["hom", "--tau-steps", "1"], None, "tau_steps must be >= 2"),
    (["spectrum", "--grid-steps", "1"], None, "grid_steps must be >= 2"),
    (["visibility", "--kind", "xx", "--sweep-lo", "1", "--sweep-hi", "2"], None,
     "kind must be hom or mz"),
    (["hom", "--units", "xx"], None, "units must be radps or si"),
    (["visibility", "--thetas", "nan,0.1", "--sweep-lo", "1", "--sweep-hi", "2"], None,
     "thetas must be finite"),
    (["visibility", "--kind", "hom", "--sweep-lo", "5", "--sweep-hi", "200", "--sweep-steps", "3",
      "--thetas", "4,-7"], None, "thetas must lie in (-pi, pi]"),
    (["match", "--omega-lo", "7000", "--omega-hi", "100", "--zeta-lo", "-0.01",
      "--zeta-hi", "0.01"], _BRANCHES + _VALIDITY, "omega_lo must be < omega_hi"),
    (["match", "--omega-lo", "100", "--omega-hi", "7000", "--zeta-lo", "30", "--zeta-hi", "30"],
     _BRANCHES + _VALIDITY, "zeta_lo must be < zeta_hi"),
    (["match", *_BRACKETS], _BRANCHES + "bogus line\n", "{crystal}:4: expected key=value"),
    (["match", *_BRACKETS], "branch.q.c0 = 1\n", "{crystal}: unknown crystal key 'branch.q.c0'"),
    (["match", *_BRACKETS], _BRANCHES, "{crystal}: validity.lo and validity.hi are required"),
    (["match", *_BRACKETS], "branch.p.c0 = 1\nbranch.s.c0 = 1\n" + _VALIDITY,
     "{crystal}: branch.i has no coefficients"),
    (["match", *_BRACKETS], _BRANCHES + _VALIDITY + "knob.branch = p\n",
     "{crystal}: knob needs both knob.branch and knob.order"),
    (["match", *_BRACKETS], _BRANCHES + _VALIDITY + "knob.branch = x\nknob.order = 0\n",
     "{crystal}: knob branch must be one of p, s, i"),
    (["match", *_BRACKETS], _BRANCHES + _VALIDITY + "knob.branch = p\nknob.order = -1\n",
     "{crystal}: knob order must be >= 0"),
    (["match", *_BRACKETS], None, "match needs --crystal"),
    (["match", "--omega-lo", "1600", "--zeta-hi", "0.01"], _BRANCHES + _VALIDITY,
     "match needs omega_hi, zeta_lo"),
], ids=["theta", "tau-steps", "grid-steps", "kind", "units", "thetas", "thetas-range",
        "omega-bracket", "zeta-bracket", "crystal-no-equals",
        "crystal-unknown-key", "crystal-no-validity", "crystal-no-coefficients",
        "crystal-knob-no-order", "crystal-knob-branch", "crystal-knob-order",
        "match-no-crystal", "match-missing-brackets"])
def test_invalid_input_exits_one_with_its_line(tmp_path, capsys, args, crystal, message):
    out = tmp_path / "x.csv"
    if crystal is not None:
        path = tmp_path / "crystal.txt"
        path.write_text(crystal)
        args = args + ["--crystal", str(path)]
        message = message.format(crystal=path)
    assert run(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_io_failure_exits_three(tmp_path, capsys):
    rc = run(["hom", "--tau-steps", "5", "--out", str(tmp_path / "no_dir" / "x.csv")])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("args, status", [
    (["hom", "--tau-steps", "3"], 0),
    (["hom", "--theta", "4"], 1),
    (["hom", "--method", "quadrature", "--tau-steps", "5", "--length-um", "1e9"], 2),
    (["hom", "--tau-steps", "3", "--out", "."], 3),
], ids=["ok", "bad-input", "nonconvergence", "io"])
def test_process_exit_status_is_mains_return_code(tmp_path, args, status):
    # every other test calls main(); this one runs the module as a program,
    # so the status goes through SystemExit to the operating system
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "spdcsim.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == status
    assert done.stderr == "" if status == 0 else done.stderr.startswith("error: ")


def test_metadata_embeds_effective_config(tmp_path, monkeypatch):
    # without --out the CSV goes to out.csv in the working directory
    monkeypatch.chdir(tmp_path)
    assert run(["hom", "--tau-steps", "5", "--theta", "0.1"]) == 0
    text = read(Path("out.csv"))
    for key in ("# out='out.csv'\n", "# gamma=", "# theta=0.1", "# pump_bw=", "# method=",
                "# tau_steps=5", "# tau_max_effective="):
        assert key in text
    assert "# threads=" not in text


# ---------------------------------------------------------------------------
# benchmark bindings
# ---------------------------------------------------------------------------

def test_cli_binds_every_function_the_benchmark_tracer_wraps(monkeypatch):
    # perfbench/tracer.py wraps these names at their spdcsim.cli binding
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    names = (tracer.QUADRATURE_FUNCTIONS + tracer.CLOSED_FUNCTIONS
             + tracer.BIPHOTON_FUNCTIONS + tracer.DISPERSION_FUNCTIONS)
    assert [name for name in names if not callable(getattr(spdcsim.cli, name, None))] == []
    for name in tracer.QUADRATURE_FUNCTIONS:
        bound = inspect.signature(getattr(spdcsim.cli, name)).bind(None, None, np.zeros(1))
        bound.apply_defaults()
        assert {"spec", "tau_max"} <= set(bound.arguments), name
    # and counts numerics.erf at spdcsim.interferometry.erf, so every closed
    # form must call the error function through that module binding
    from spdcsim import (PhaseMatchParams, PumpSpectrum, closed_form_params, hom_rate_closed,
                         mz_rate_closed, v_hom)

    calls = []
    real_erf = spdcsim.interferometry.erf

    def counting_erf(x):
        calls.append(x)
        return real_erf(x)

    monkeypatch.setattr("spdcsim.interferometry.erf", counting_erf)
    cfp = closed_form_params(PhaseMatchParams(gamma=8e-5, theta=0.0, length=1e3),
                             PumpSpectrum(omega_p=2000.0, bandwidth=40.0))
    for closed_form in (lambda: hom_rate_closed(cfp, 0.0), lambda: mz_rate_closed(cfp, 0.0),
                        lambda: v_hom(cfp)):
        before = len(calls)
        closed_form()
        assert len(calls) > before
    # an array call evaluates erf through the same binding at each delay whose
    # argument lies inside +-6, as all of these do
    taus = np.array([-0.5, 0.1, 0.7]) * cfp.tau_theta
    for closed_form in (hom_rate_closed, mz_rate_closed):
        before = len(calls)
        closed_form(cfp, taus)
        assert len(calls) >= before + len(taus)


@pytest.mark.parametrize("row", [0, 1, 37])
def test_closed_products_match_the_benchmark_reference_bytes(tmp_path, monkeypatch, capsys, row):
    # the closed_products pass and the closed fringe column of fringe_scan,
    # as perfbench/make_golden.py runs them, against perfbench/golden.json;
    # row 0 is the README setting, rows 1 and 37 are jittered
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    calls = workloads.plan("closed_products", row, tmp_path)
    (fringe,) = workloads.plan("fringe_scan", row, tmp_path)
    argv = [("closed" if arg == "both" else arg) for arg in fringe.argv]
    for call_argv in [*(call.argv for call in calls), argv]:
        assert main(list(call_argv)) == 0
    capsys.readouterr()
    golden = workloads.load_golden()
    assert workloads.check("closed_products", row, calls, golden) == []
    assert (workloads.product_digests("fringe_scan", [fringe])["fringe.P_closed"]
            == golden["rows"][str(row)]["fringe.P_closed"])


# ---------------------------------------------------------------------------
# one input schema: flags, config keys and the README
# ---------------------------------------------------------------------------

# a valid, non-default text for every RunConfig field that is also a flag
FIELD_SAMPLES = {
    "omega_p": "2100.5", "pump_bw": "35", "gamma": "9e-5", "theta": "-0.5",
    "length_um": "2e3", "out": "x.csv", "units": "si", "grid_span": "50", "grid_steps": "11",
    "tau_max": "0.1", "tau_steps": "9", "method": "both", "kind": "mz", "sweep_lo": "5",
    "sweep_hi": "200", "sweep_steps": "7", "thetas": "0.5, -0.25,", "crystal": "c.txt",
    "omega_lo": "1600", "omega_hi": "2400", "zeta_lo": "-0.01", "zeta_hi": "0.01",
}
FLAG_FIELDS = sorted({name for _, _, flags in spdcsim.cli.COMMANDS.values()
                      for name in spdcsim.cli._COMMON_FLAGS + flags})


@pytest.mark.parametrize("name", FLAG_FIELDS)
def test_flag_and_config_key_agree(tmp_path, name):
    command = next(command for command, (_, _, flags) in spdcsim.cli.COMMANDS.items()
                   if name in spdcsim.cli._COMMON_FLAGS + flags)
    value = FIELD_SAMPLES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")

    def meta(*argv):
        args = spdcsim.cli._build_parser().parse_args([command, *argv])
        lines = spdcsim.cli._meta_lines(spdcsim.cli._resolve_config(args), command)
        # units is recorded as the rad/ps the values are held in, so its
        # effect shows in the converted frequencies of the whole block
        return lines if name == "units" else [line for line in lines
                                              if line.startswith(f"# {name}=")]

    from_flag = meta("--" + name.replace("_", "-"), value)
    assert from_flag == meta("--config", str(cfg)) != meta()


@pytest.mark.parametrize("argv", [
    ["validate", "--theta", "0.3"],
    ["validate", "--length-um", "7"],
    ["visibility", "--sweep-lo", "5", "--sweep-hi", "200", "--theta", "0.3"],
    ["match", "--crystal", "c.txt", "--omega-lo", "1600", "--omega-hi", "2400",
     "--zeta-lo", "-0.01", "--zeta-hi", "0.01", "--theta", "0.3"],
    ["hom", "--tau-st", "3"],
], ids=["validate-theta", "validate-length", "visibility-theta", "match-theta", "hom-abbrev"])
def test_flag_the_command_does_not_read_exits_one(tmp_path, monkeypatch, capsys, argv):
    # visibility would read --theta as an abbreviated --thetas, and hom
    # --tau-st as --tau-steps, if abbreviations were allowed
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, value", [
    ("validate", "theta", "0.3"), ("hom", "grid_steps", "11")])
def test_config_key_the_command_does_not_read_exits_one(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "x.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {command} reads no config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, unset, extras", [
    (["spectrum", "--grid-steps", "3"], {"grid_span"}, {"grid_span_effective"}),
    (["hom", "--tau-steps", "5"], {"tau_max"}, {"tau_max_effective", "tau_steps_effective"}),
    (["mz", "--tau-max", "0.01", "--tau-steps", "5"], set(),
     {"tau_max_effective", "tau_steps_effective"}),
    (["visibility", "--sweep-lo", "5", "--sweep-hi", "200", "--sweep-steps", "2"], set(),
     {"swept"}),
    (["validate"], set(), {"sets"}),
], ids=["spectrum", "hom", "mz", "visibility", "validate"])
def test_meta_block_records_exactly_the_inputs_the_command_reads(tmp_path, capsys, argv, unset,
                                                                 extras):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    keys = {line[2:].split("=", 1)[0] for line in read(out).splitlines() if line.startswith("# ")}
    inputs = set(spdcsim.cli._COMMON_FLAGS + spdcsim.cli.COMMANDS[argv[0]][2])
    assert keys == (inputs - unset) | extras
    assert argv[0] == "visibility" or "kind" not in keys  # an mz trace is not a 'hom' run


def test_si_units_are_recorded_as_the_radps_values_held(tmp_path):
    out = tmp_path / "si.csv"
    assert run(["hom", "--tau-steps", "7", "--units", "si", "--omega-p", "2e15",
                "--pump-bw", "4e13", "--out", str(out)]) == 0
    meta = read(out).splitlines()
    assert "# units='radps'" in meta and "# omega_p=2000.0" in meta and "# pump_bw=40.0" in meta


def test_every_benchmark_argv_parses_and_resolves(tmp_path, monkeypatch):
    # the benchmark's whole input table: a command that stops taking one of
    # these inputs fails here, not in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = spdcsim.cli._build_parser()
    argvs = [call.argv for workload in workloads.WORKLOADS
             for row in range(workloads.TABLE_ROWS)
             for call in workloads.plan(workload, row, tmp_path)]
    assert len(argvs) == 512
    for argv in argvs:
        spdcsim.cli._resolve_config(parser.parse_args(list(argv)))


def readme_cli_examples() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("spdcsim ")]


def _subparsers(parser):
    """{command: subparser} of a parser that _build_parser made."""
    (action,) = parser._subparsers._group_actions
    return action.choices


def test_parser_built_for_one_command_keeps_every_help_and_usage():
    # main builds only the named command's flags; the help of every
    # subparser built that way, and the top-level help, usage and choices,
    # are those of the parser with every command built
    full = spdcsim.cli._build_parser()
    for command in spdcsim.cli.COMMANDS:
        lazy = spdcsim.cli._build_parser(command)
        assert lazy.format_help() == full.format_help()
        assert lazy.format_usage() == full.format_usage()
        assert _subparsers(lazy).keys() == _subparsers(full).keys()
        assert (_subparsers(lazy)[command].format_help()
                == _subparsers(full)[command].format_help())


@pytest.mark.parametrize("argv", [["nope"], [], ["--tau-steps", "5"]],
                         ids=["invalid-choice", "no-command", "flag-first"])
def test_parser_errors_name_every_command(capsys, argv):
    # a first word that names no command: main's one-line error is the
    # fully built parser's, which names every command
    with pytest.raises(ValueError) as full:
        spdcsim.cli._build_parser().parse_args(argv)
    message = str(full.value)
    assert "invalid choice" not in message or all(c in message for c in spdcsim.cli.COMMANDS)
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {full.value}\n"


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    assert {argv[1] for argv in examples} == set(spdcsim.cli.COMMANDS)
    parser = spdcsim.cli._build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])  # raises ValueError on a flag the parser lacks


# sha256 of the data sections of the README's CLI examples that read no
# input file, as written at commit ab035d4; of the hom trace only tau_ps and
# P_closed, since P_quadrature moves whenever the quadrature oracle improves
README_EXAMPLE_DATA_SHA256 = {
    "spectrum": "0b95dba98a9f7b38f69ebf5f469a91c8d9f0b41a0a6a3f683ee7992ee39e4fc4",
    "hom": "18228f40c2b9354b02ea6344df180fc1492216dc9f4ed7d10dc47d05a000ac51",
    "mz": "370997aec3e2dbaa3a5d1df4a7355e101e9c9f5799deaa7190860bbbaa04d6cc",
    "visibility": "4a8dcf1f7d9388b3c7ba96cd749b879ad9cd23f8c694aaf02586424eb2959d9a",
}


def test_readme_cli_examples_write_the_pinned_bytes(tmp_path, monkeypatch):
    examples = {argv[1]: argv[2:] for argv in readme_cli_examples()
                if argv[1] in README_EXAMPLE_DATA_SHA256}
    assert examples.keys() == README_EXAMPLE_DATA_SHA256.keys()
    monkeypatch.chdir(tmp_path)
    for command, argv in examples.items():
        assert run([command, *argv]) == 0
        data = data_section(read(tmp_path / argv[argv.index("--out") + 1]))
        if command == "hom":
            data = "\n".join(",".join(line.split(",")[:2]) for line in data.splitlines())
        assert hashlib.sha256(data.encode()).hexdigest() == README_EXAMPLE_DATA_SHA256[command], \
            command


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
