from __future__ import annotations

import importlib
import inspect
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import spdcsim.cli
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
    assert run(["hom", "--tau-steps", "7", "--omega-p", "2000", "--pump-bw", "40",
                "--out", str(a)]) == 0
    assert run(["hom", "--tau-steps", "7", "--units", "si", "--omega-p", "2e15",
                "--pump-bw", "4e13", "--out", str(b)]) == 0
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


def test_mz_default_grid_samples_fringes(tmp_path):
    out = tmp_path / "mf.csv"
    assert run(["mz", "--tau-max", "0.01", "--out", str(out)]) == 0
    lines = data_section(read(out)).splitlines()
    n = len(lines) - 1
    fringe = 2.0 * math.pi / 2000.0
    assert n >= 2 * 0.01 / fringe * 40.0


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
                cfp = closed_form_params(PhaseMatchParams(2000.0, 8e-5, theta, 3e3),
                                         PumpSpectrum(2000.0, float(x)))
                v = v_hom(cfp)
            else:
                cfp = closed_form_params(PhaseMatchParams(2000.0, 8e-5, theta, float(x)),
                                         PumpSpectrum(2000.0, 25.0))
                v = v_mz(cfp)
            rows.append(",".join(format(float(t), ".9g") for t in (x, theta, v)))
    text = read(out)
    assert data_section(text) == "\n".join(rows)
    assert f"# swept={swept!r}" in text.splitlines()


def test_write_csv_matches_per_value_format(tmp_path):
    values = np.array([-0.0, 5e-324, 1.5e22, 1000.0, 0.1, 2.5e-310, 123456789012.0, 1e-5])
    columns = {"a": values, "b": values[::-1], "c": np.arange(len(values), dtype=float)}
    out = tmp_path / "w.csv"
    spdcsim.cli._write_csv(spdcsim.cli.RunConfig(out=str(out)), "hom", {"extra": 1}, columns)
    expected = ["a,b,c"] + [",".join(format(float(x), ".9g") for x in row)
                            for row in zip(*columns.values())]
    text = read(out)
    assert text.endswith("\n") and "# extra=1" in text.splitlines()
    assert data_section(text) == "\n".join(expected)


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
    # the u axis of a 1 m crystal needs 17,286,104 panels, far over the budget
    ["hom", "--method", "quadrature", "--tau-steps", "5", "--length-um", "1e9"],
    # gamma * length = 1e307 is finite, but the u axis panel count is not
    ["hom", "--method", "quadrature", "--gamma", "1e300", "--length-um", "1e7", "--theta", "0.3",
     "--tau-max", "1", "--tau-steps", "3"],
    ["mz", "--method", "quadrature", "--gamma", "1e300", "--length-um", "1e7", "--theta", "0.3",
     "--tau-max", "1", "--tau-steps", "3"],
], ids=["long-crystal", "hom-infinite-count", "mz-infinite-count"])
def test_quadrature_nonconvergence_exits_two(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    rc = run(args + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert err.count("\n") == 1
    assert not out.exists()


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
], ids=["hom-span-inf", "hom-window-inf", "mz-span", "mz-span-steps", "validate-span",
        "hom-gl", "hom-quadrature-gl", "mz-width", "visibility-width", "hom-width-zero"])
def test_overflowing_derived_scale_exits_one(tmp_path, capsys, args, message):
    # each setting is finite and positive, but a scale derived from it is
    # inf or 0: a CSV of nan, or a division by zero, without the guards
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
    # the phases reach ~5e307: finite, but squaring them for the series
    # branch of phi_L would overflow (a RuntimeWarning fails the test)
    out = tmp_path / "x.csv"
    assert run(["spectrum", "--gamma", "1e299", "--length-um", "1e7", "--grid-steps", "3",
                "--out", str(out)]) == 0
    assert "nan" not in read(out)


def test_io_failure_exits_three(tmp_path, capsys):
    rc = run(["hom", "--tau-steps", "5", "--out", str(tmp_path / "no_dir" / "x.csv")])
    assert rc == 3
    capsys.readouterr()


def test_metadata_embeds_effective_config(tmp_path):
    out = tmp_path / "meta.csv"
    assert run(["hom", "--tau-steps", "5", "--theta", "0.1", "--out", str(out)]) == 0
    text = read(out)
    for key in ("# gamma=", "# theta=0.1", "# pump_bw=", "# method=", "# tau_steps=5",
                "# tau_max_effective="):
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


def test_closed_products_match_the_benchmark_reference_bytes(tmp_path, monkeypatch, capsys):
    # the closed_products pass and the closed fringe column of fringe_scan,
    # as perfbench/make_golden.py runs them, against perfbench/golden.json
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    calls = workloads.plan("closed_products", 0, tmp_path)
    (fringe,) = workloads.plan("fringe_scan", 0, tmp_path)
    argv = [("closed" if arg == "both" else arg) for arg in fringe.argv]
    for call_argv in [*(call.argv for call in calls), argv]:
        assert main(list(call_argv)) == 0
    capsys.readouterr()
    golden = workloads.load_golden()
    assert workloads.check("closed_products", 0, calls, golden) == []
    assert (workloads.product_digests("fringe_scan", [fringe])["fringe.P_closed"]
            == golden["rows"]["0"]["fringe.P_closed"])


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


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("spdcsim ")]
    assert {argv[1] for argv in examples} == set(spdcsim.cli.COMMANDS)
    parser = spdcsim.cli._build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])  # raises CliError on a flag the parser lacks
