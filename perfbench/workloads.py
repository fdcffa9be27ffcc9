"""Workload inputs and output checks for the spdcsim benchmark.

A workload seed selects one row of a fixed input table.  Row 0 is the
README default setting (omega_p = 2000 rad/ps, pump_bw = 40 rad/ps,
gamma = 8e-5 ps/um); every other row scales those three continuous inputs
by independent factors in [1 - JITTER, 1 + JITTER].  The table is finite so
that the byte-level output checks can compare against stored digests of
the reference program's output for every row (see golden.json and
make_golden.py).  The program itself only ever receives CLI arguments and
the crystal file written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("validate", "fringe_scan", "closed_products")
TABLE_ROWS = 64
JITTER = 0.02
DEFAULTS = {"omega_p": 2000.0, "pump_bw": 40.0, "gamma": 8e-5}
# the acceptance gate's own bound on closed form vs quadrature
MAX_DEVIATION = 1e-3
# the three engine settings that `spdcsim validate` builds, as (theta, length_um)
VALIDATE_SETTINGS = ((-math.pi / 4, 1e3), (math.pi / 5, 2e4), (-math.pi / 6, 2e4))
CONV_THETA, CONV_LENGTH = -math.pi / 6, 2e4


@dataclass(frozen=True)
class Invocation:
    """One `spdcsim` CLI call: the subcommand, its argv and the file it writes."""

    command: str
    argv: tuple[str, ...]
    out: str


def table_row(seed: int) -> int:
    return 0 if seed == 0 else 1 + (seed - 1) % (TABLE_ROWS - 1)


def inputs(row: int) -> dict[str, float]:
    """The continuous inputs of one table row."""
    if row == 0:
        return dict(DEFAULTS)
    rng = random.Random(f"perfbench-row-{row}")
    return {key: value * (1.0 + rng.uniform(-JITTER, JITTER)) for key, value in DEFAULTS.items()}


def _common(values: dict[str, float]) -> tuple[str, ...]:
    return ("--omega-p", repr(values["omega_p"]), "--pump-bw", repr(values["pump_bw"]),
            "--gamma", repr(values["gamma"]))


def planted_crystal_text(omega: float, gamma: float) -> str:
    """Crystal file with a joint order-0/order-1 matching point at `omega`
    on the theta = -pi/4 ray with group-delay magnitude `gamma`."""
    half = 0.5 * omega
    s = [10.0, 5e-3, 1e-9]
    i0, i2 = 10.3, -1e-9
    i1 = s[1] + omega * (s[2] - i2) + 2.0 * gamma / math.sqrt(2.0)
    i = [i0, i1, i2]
    t2 = 2e-9
    ks1 = s[1] + 2.0 * s[2] * half
    ki1 = i[1] + 2.0 * i[2] * half
    t1 = 0.5 * (ks1 + ki1) - 2.0 * t2 * omega
    ks0 = s[0] + s[1] * half + s[2] * half * half
    ki0 = i[0] + i[1] * half + i[2] * half * half
    t0 = ks0 + ki0 - t1 * omega - t2 * omega * omega
    zeta_star = 1e-4
    lines = [
        f"# planted crystal with a joint matching point at {omega!r} rad/ps",
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


def plan(workload: str, row: int, workdir: Path) -> list[Invocation]:
    """The CLI calls of one pass; writes the crystal file `match` reads."""
    values = inputs(row)
    common = _common(values)

    def inv(command: str, name: str, *extra: str) -> Invocation:
        out = str(workdir / name)
        return Invocation(command, (command, *extra, *common, "--out", out), out)

    if workload == "validate":
        return [inv("validate", "validate.csv")]
    if workload == "fringe_scan":
        return [inv("mz", "fringe.csv", "--method", "both")]
    if workload != "closed_products":
        raise ValueError(f"unknown workload {workload!r}")
    crystal = workdir / "crystal.txt"
    crystal.write_text(planted_crystal_text(values["omega_p"], values["gamma"]))
    conv = ("--theta", repr(CONV_THETA), "--length-um", repr(CONV_LENGTH))
    return [
        inv("mz", "mz_closed.csv", "--method", "closed", *conv),
        inv("hom", "hom_closed.csv", "--method", "closed", *conv),
        inv("spectrum", "spectrum.csv", "--grid-steps", "401", "--theta", "0"),
        inv("visibility", "vis_hom.csv", "--kind", "hom", "--sweep-lo", "5",
            "--sweep-hi", "200", "--sweep-steps", "60"),
        inv("visibility", "vis_mz.csv", "--kind", "mz", "--sweep-lo", "1e3",
            "--sweep-hi", "5e4", "--sweep-steps", "60"),
        inv("match", "match.txt", "--crystal", str(crystal), "--omega-lo", "1600",
            "--omega-hi", "2400", "--zeta-lo", "-0.01", "--zeta-hi", "0.01",
            "--length-um", "1e4"),
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def data_section(text: str) -> list[str]:
    """Lines after the `# key=value` meta block (the header and the rows)."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()[:24]


def column(lines: list[str], name: str) -> list[str]:
    idx = lines[0].split(",").index(name)
    return [line.split(",")[idx] for line in lines[1:]]


def product_digests(workload: str, calls: list[Invocation]) -> dict[str, str]:
    """Digests of the byte-checked parts of a pass's outputs, keyed by file."""
    out = {}
    for call in calls:
        lines = data_section(Path(call.out).read_text())
        if workload == "fringe_scan":
            out["fringe.P_closed"] = digest(column(lines, "P_closed"))
        elif workload == "closed_products":
            out[Path(call.out).name] = digest(lines)
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def check(workload: str, row: int, calls: list[Invocation], golden: dict) -> list[str]:
    """Problems found in a pass's outputs; empty when the pass is correct."""
    problems = []
    if workload == "validate":
        lines = data_section(Path(calls[0].out).read_text())
        if lines[0] != "theta,length_um,max_abs_deviation" or len(lines) != 7:
            return [f"validate wrote {len(lines) - 1} sets, expected 6"]
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        settings = sorted((theta, length) for theta, length, _ in rows)
        expected = sorted(2 * [(float(f"{t:.9g}"), float(f"{l:.9g}")) for t, l in VALIDATE_SETTINGS])
        if settings != expected:
            problems.append(f"validate sets {settings} differ from {expected}")
        worst = max(dev for _, _, dev in rows)
        if not worst <= MAX_DEVIATION:
            problems.append(f"validate max_abs_deviation {worst:.3e} > {MAX_DEVIATION}")
        return problems
    if workload == "fringe_scan":
        lines = data_section(Path(calls[0].out).read_text())
        closed = [float(x) for x in column(lines, "P_closed")]
        quad = [float(x) for x in column(lines, "P_quadrature")]
        worst = max(abs(c - q) for c, q in zip(closed, quad))
        if not worst <= MAX_DEVIATION:
            problems.append(f"fringe |P_closed - P_quadrature| {worst:.3e} > {MAX_DEVIATION}")
    expected = golden["rows"][str(row)]
    for name, value in product_digests(workload, calls).items():
        if value != expected.get(name):
            problems.append(f"{name} data section differs from the reference bytes")
    return problems
