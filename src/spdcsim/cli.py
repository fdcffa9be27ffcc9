"""Command-line front end: spectra, dip/fringe traces, visibility sweeps,
matching-point solves and the closed-form-vs-quadrature validation suite,
all written as deterministic CSV data products.

Config precedence: command-line flag > config-file key > built-in default.
Exit codes: 0 ok, 1 invalid input, 2 numerical non-convergence, 3 I/O.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .biphoton import PumpSpectrum, grid, truncation_halfwidth
from .dispersion import (
    DispersionModel,
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
from .interferometry import (
    TraceKind,
    closed_form_params,
    delay_span,
    hom_rate_closed,
    hom_trace_integral,
    mz_rate_closed,
    mz_trace_integral,
    sweep_visibility,
)
from .numerics import Interval, NonConvergence

__all__ = ["RunConfig", "main"]

DEFAULT_THETAS = (-math.pi / 4, -math.pi / 5, -math.pi / 6, 0.0, math.pi / 5)

# the six reference parameter sets exercised by the validate command
VALIDATION_SETS = (
    ("epm_hom", TraceKind.HOM, -math.pi / 4, 1e3),
    ("epm_mz", TraceKind.MZ, -math.pi / 4, 1e3),
    ("conv_hom_pos", TraceKind.HOM, math.pi / 5, 2e4),
    ("conv_mz_pos", TraceKind.MZ, math.pi / 5, 2e4),
    ("conv_hom_neg", TraceKind.HOM, -math.pi / 6, 2e4),
    ("conv_mz_neg", TraceKind.MZ, -math.pi / 6, 2e4),
)
# points in any one grid a command allocates; the largest benchmark grid,
# a 401 x 401 spectrum, has 160,801
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class RunConfig:
    omega_p: float = 2000.0     # rad/ps
    pump_bw: float = 40.0       # rad/ps
    gamma: float = 8e-5         # ps/um
    theta: float = -math.pi / 4
    length_um: float = 1e3
    tau_max: float | None = None
    tau_steps: int | None = None
    grid_span: float | None = None
    grid_steps: int = 101
    method: str = "closed"
    out: str | None = None      # None: CSV commands write out.csv, match only prints
    kind: str = "hom"
    sweep_lo: float | None = None
    sweep_hi: float | None = None
    sweep_steps: int = 41
    thetas: tuple[float, ...] = DEFAULT_THETAS
    crystal: str | None = None
    omega_lo: float | None = None
    omega_hi: float | None = None
    zeta_lo: float | None = None
    zeta_hi: float | None = None
    units: str = "radps"

    def validate(self) -> None:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        infinite = [name for name, value in values.items()
                    if isinstance(value, float) and not math.isfinite(value)]
        if not all(map(math.isfinite, self.thetas)):
            infinite.append("thetas")
        if infinite:
            raise ValueError(f"{', '.join(infinite)} must be finite")
        if not self.thetas:
            raise ValueError("thetas must not be empty")
        if self.omega_p <= 0 or self.pump_bw <= 0 or self.gamma <= 0 or self.length_um <= 0:
            raise ValueError("omega_p, pump_bw, gamma and length_um must all be > 0")
        for key, angles in (("theta", (self.theta,)), ("thetas", self.thetas)):
            if not all(-math.pi < t <= math.pi for t in angles):
                raise ValueError(f"{key} must lie in (-pi, pi]")
        if self.tau_max is not None and self.tau_max <= 0:
            raise ValueError("tau_max must be > 0")
        if self.grid_span is not None and self.grid_span <= 0:
            raise ValueError("grid_span must be > 0")
        for key in ("tau_max", "grid_span"):
            half = getattr(self, key)
            if half is not None and not math.isfinite(2.0 * half):
                raise ValueError(f"{key} = {half} gives a window width 2 * {key} "
                                 "that is not finite")
        if self.tau_steps is not None and self.tau_steps < 2:
            raise ValueError("tau_steps must be >= 2")
        if self.grid_steps < 2:
            raise ValueError("grid_steps must be >= 2")
        if self.method not in ("closed", "quadrature", "both"):
            raise ValueError("method must be closed, quadrature or both")
        if self.kind not in ("hom", "mz"):
            raise ValueError("kind must be hom or mz")
        if self.units not in ("radps", "si"):
            raise ValueError("units must be radps or si")
        if self.sweep_steps < 2:
            raise ValueError("sweep_steps must be >= 2")
        if self.sweep_lo is not None and self.sweep_lo <= 0:
            raise ValueError("sweep_lo must be > 0")
        for lo, hi in (("sweep_lo", "sweep_hi"), ("omega_lo", "omega_hi"), ("zeta_lo", "zeta_hi")):
            bounds = getattr(self, lo), getattr(self, hi)
            if None not in bounds and bounds[0] >= bounds[1]:
                raise ValueError(f"{lo} must be < {hi}")
        for key, points in (("tau_steps", self.tau_steps or 0),
                            ("grid_steps", self.grid_steps ** 2),
                            ("sweep_steps", self.sweep_steps * len(self.thetas))):
            if points > MAX_GRID_POINTS:
                raise ValueError(f"{key} = {getattr(self, key)} gives a grid of {points} points, "
                                 f"more than {MAX_GRID_POINTS}")

    @property
    def params(self) -> PhaseMatchParams:
        return PhaseMatchParams(gamma=self.gamma, theta=self.theta, length=self.length_um)

    @property
    def pump(self) -> PumpSpectrum:
        return PumpSpectrum(omega_p=self.omega_p, bandwidth=self.pump_bw)


def _thetas(text: str) -> tuple[float, ...]:
    """Comma-separated angles in rad; blank tokens are skipped."""
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _text_parser(hint):
    # float, int or str, with the None of an optional field unwrapped
    if hint == tuple[float, ...]:
        return _thetas
    return next(t for t in (hint, *get_args(hint)) if t in (float, int, str))


# RunConfig field -> parser of its text, shared by the flag and the config key
_PARSERS = {name: _text_parser(hint) for name, hint in get_type_hints(RunConfig).items()}
_ANGULAR_FREQ_KEYS = ("omega_p", "pump_bw", "grid_span", "omega_lo", "omega_hi")


def _parse_kv_file(path: str, what: str) -> dict[str, str]:
    """key=value lines of a `what` ("config" or "crystal") file."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        raw[key] = value
    return raw


def _parse_value(parse, text: str, path: str, key: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {key}: {exc}") from exc


def _inputs(command: str) -> tuple[str, ...]:
    """The RunConfig fields `command` reads: its flags, config keys and meta keys."""
    return _COMMON_FLAGS + COMMANDS[command][2]


def _coerce_config(raw: dict[str, str], path: str, command: str) -> dict:
    out: dict = {}
    for key, value in raw.items():
        if key not in _inputs(command):
            raise ValueError(f"{path}: {command} reads no config key {key!r}")
        out[key] = _parse_value(_PARSERS[key], value, path, key)
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = _parse_kv_file(args.config, "config")
        cfg = replace(cfg, **_coerce_config(raw, args.config, args.command))
    cfg = replace(cfg, **{name: getattr(args, name) for name in _inputs(args.command)
                          if getattr(args, name) is not None})
    if cfg.units == "si":
        # angular frequencies supplied in 1/s: convert to rad/ps, and record
        # that the values now held are in rad/ps (the dip sweep runs over
        # the pump bandwidth)
        keys = _ANGULAR_FREQ_KEYS + (("sweep_lo", "sweep_hi") if cfg.kind == "hom" else ())
        si = {k: getattr(cfg, k) * 1e-12 for k in keys if getattr(cfg, k) is not None}
        cfg = replace(cfg, units="radps", **si)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return format(float(value), ".9g")


def _meta_lines(cfg: RunConfig, command: str, extra: dict | None = None) -> list[str]:
    entries: dict[str, object] = {name: getattr(cfg, name) for name in _inputs(command)}
    if extra:
        entries.update(extra)
    lines = []
    for key in sorted(entries):
        value = entries[key]
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"# {key}={value!r}" if isinstance(value, str) else f"# {key}={value}")
    return lines


# rows per block of _write_csv
_BLOCK_ROWS = 1024


def _write_csv(cfg: RunConfig, command: str, extra_meta: dict | None,
               columns: dict[str, np.ndarray]) -> None:
    """Meta lines of `command`'s inputs and extra_meta, the header of column
    names, then the rows, each value at %.9g (the bytes of _fmt).

    A table whose last column is 2-D is a grid (first, second, last): its
    rows are (first[i], second[k], last[i, k]), i-major.  It goes out in
    blocks of whole grid rows, at most _BLOCK_ROWS rows or one grid row
    each, and each axis value is formatted once into the block's
    %-template, so a 401 x 401 spectrum formats 160,801 + 2 x 401 values
    in place of 482,403.  Any other table holds equal-length 1-D columns,
    one row per index, in blocks of _BLOCK_ROWS rows of plain %.9g.  Only
    one block's rows and strings are held at once: 4096-row blocks were no
    faster and raised peak RSS by 0.5 MiB over numpy.savetxt, 1024-row
    ones by under 0.1 MiB."""
    if cfg.out is None:
        cfg = replace(cfg, out="out.csv")
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    with open(cfg.out, "w") as fh:
        fh.write("\n".join(_meta_lines(cfg, command, extra_meta) + [",".join(columns)]) + "\n")
        if cols[-1].ndim == 2:
            outer, inner, values = cols
            # what follows the first axis's text in each grid row
            tails = [""] + ["," + _fmt(x) + ",%.9g\n" for x in inner]
            step = max(1, _BLOCK_ROWS // len(inner))
            for lo in range(0, len(outer), step):
                template = "".join(_fmt(x).join(tails) for x in outer[lo:lo + step])
                fh.write(template % tuple(values[lo:lo + step].ravel().tolist()))
        else:
            row = ",".join(["%.9g"] * len(cols)) + "\n"
            for lo in range(0, len(cols[0]), _BLOCK_ROWS):
                block = np.column_stack([c[lo:lo + _BLOCK_ROWS] for c in cols])
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------

def _tau_grid(cfg: RunConfig, kind: TraceKind) -> np.ndarray:
    tau_max = cfg.tau_max if cfg.tau_max is not None else delay_span(cfg.params, cfg.pump)
    if kind is TraceKind.MZ and not math.isfinite(cfg.omega_p * tau_max):
        raise ValueError(f"fringe phase omega_p * tau_max = {cfg.omega_p} * {tau_max} "
                         "is not finite")
    steps = cfg.tau_steps
    if steps is None:
        steps = 201
        if kind is TraceKind.MZ:
            # at least 40 samples per fringe period, else the fringes alias
            fringe = 2.0 * math.pi / cfg.omega_p
            samples = 2.0 * tau_max / fringe * 40.0
            if not math.isfinite(samples):
                raise ValueError(f"omega_p = {cfg.omega_p} gives a fringe step count that is "
                                 "not finite; set tau_steps")
            steps = max(steps, int(math.ceil(samples)) + 1)
            if steps > MAX_GRID_POINTS:
                raise ValueError(f"tau_max = {tau_max} gives a fringe grid of {steps:.3g} points "
                                 f"at omega_p = {cfg.omega_p}, more than {MAX_GRID_POINTS}")
    return np.linspace(-tau_max, tau_max, steps)


def _trace_columns(cfg: RunConfig, kind: TraceKind, taus: np.ndarray) -> dict[str, np.ndarray]:
    """The P_closed and P_quadrature columns that cfg.method asks for; the
    functions are this module's bindings at call time (perfbench patches them)."""
    hom = kind is TraceKind.HOM
    columns = {}
    if cfg.method in ("closed", "both"):
        rate = hom_rate_closed if hom else mz_rate_closed
        columns["P_closed"] = rate(closed_form_params(cfg.params, cfg.pump), taus)
    if cfg.method in ("quadrature", "both"):
        run = hom_trace_integral if hom else mz_trace_integral
        columns["P_quadrature"] = run(cfg.params, cfg.pump, taus)
    return columns


def _trace_command(cfg: RunConfig, kind: TraceKind) -> int:
    taus = _tau_grid(cfg, kind)
    _write_csv(cfg, kind.value, {"tau_max_effective": taus[-1], "tau_steps_effective": len(taus)},
               {"tau_ps": taus, **_trace_columns(cfg, kind, taus)})
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    params, pump = cfg.params, cfg.pump
    span = cfg.grid_span if cfg.grid_span is not None else truncation_halfwidth(
        params, pump, lobes=3.0, sigmas=3.0)
    center = 0.5 * pump.omega_p
    if not center - span < center + span:
        raise ValueError(f"grid_span = {span} around omega_p / 2 = {center} rounds to one point")
    axis, values = grid(params, pump, Interval(center - span, center + span), cfg.grid_steps)
    _write_csv(cfg, "spectrum", {"grid_span_effective": span},
               {"omega_s": axis, "omega_i": axis, "abs_A": values})
    return 0


def cmd_visibility(cfg: RunConfig) -> int:
    kind = TraceKind(cfg.kind)
    if cfg.sweep_lo is None or cfg.sweep_hi is None:
        raise ValueError("visibility needs sweep_lo and sweep_hi")
    xs = np.linspace(cfg.sweep_lo, cfg.sweep_hi, cfg.sweep_steps)
    vs = sweep_visibility(kind, cfg.params, cfg.pump, cfg.thetas, xs)
    # rows run sweep-major, theta-minor
    swept = "pump_bandwidth" if kind is TraceKind.HOM else "crystal_length"
    _write_csv(cfg, "visibility", {"swept": swept},
               {"sweep_value": xs, "theta": cfg.thetas, "visibility": vs.T})
    return 0


def _parse_crystal_file(path: str) -> DispersionModel:
    raw = _parse_kv_file(path, "crystal")
    coeffs: dict[str, dict[int, float]] = {"p": {}, "s": {}, "i": {}}
    validity: dict[str, float] = {}
    knob: dict[str, str] = {}
    for key, value in raw.items():
        parts = key.split(".")
        if parts[0] == "branch" and len(parts) == 3 and parts[1] in coeffs and parts[2].startswith("c"):
            order = _parse_value(int, parts[2][1:], path, key)
            if order < 0:
                raise ValueError(f"{path}: {key}: coefficient order must be >= 0, got {order}")
            coeffs[parts[1]][order] = _parse_value(float, value, path, key)
        elif parts[0] == "validity" and len(parts) == 2 and parts[1] in ("lo", "hi"):
            validity[parts[1]] = _parse_value(float, value, path, key)
        elif parts[0] == "knob" and len(parts) == 2 and parts[1] in ("branch", "order"):
            knob[parts[1]] = _parse_value(str if parts[1] == "branch" else int, value, path, key)
        else:
            raise ValueError(f"{path}: unknown crystal key {key!r}")
    if "lo" not in validity or "hi" not in validity:
        raise ValueError(f"{path}: validity.lo and validity.hi are required")
    branches = {}
    for name, cmap in coeffs.items():
        if not cmap:
            raise ValueError(f"{path}: branch.{name} has no coefficients")
        branches[name] = PolynomialBranch([cmap.get(j, 0.0) for j in range(max(cmap) + 1)])
    spec = None
    if knob:
        if "branch" not in knob or "order" not in knob:
            raise ValueError(f"{path}: knob needs both knob.branch and knob.order")
        try:
            spec = KnobSpec(branch=knob["branch"], order=knob["order"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return DispersionModel(k_p=branches["p"], k_s=branches["s"], k_i=branches["i"],
                           validity=Interval(validity["lo"], validity["hi"]), knob=spec)


def cmd_match(cfg: RunConfig) -> int:
    if cfg.crystal is None:
        raise ValueError("match needs --crystal")
    missing = [k for k in ("omega_lo", "omega_hi", "zeta_lo", "zeta_hi")
               if getattr(cfg, k) is None]
    if missing:
        raise ValueError(f"match needs {', '.join(missing)}")
    model = _parse_crystal_file(cfg.crystal)
    omega_p, zeta = solve_epm(model, Interval(cfg.omega_lo, cfg.omega_hi),
                              Interval(cfg.zeta_lo, cfg.zeta_hi))
    solved = model.with_zeta(zeta)
    lines = [f"omega_p = {_fmt(omega_p)} rad/ps", f"zeta = {_fmt(zeta)}"]
    for order in range(4):
        lines.append(f"residual_order{order} = {_fmt(check_condition(solved, omega_p, order))}")
    gs, gi = taylor_gammas(solved, omega_p)
    lines.append(f"gamma_s = {_fmt(gs)} ps/um")
    lines.append(f"gamma_i = {_fmt(gi)} ps/um")
    # gamma_s + gamma_i = 2 residual_order1 (docs/DERIVATION.md (1.4)); the
    # signs decide, not their product, which can underflow
    if gs < 0 < gi or gi < 0 < gs:
        gamma, theta = polar_params(gs, gi)
        lines.append(f"gamma = {_fmt(gamma)} ps/um")
        lines.append(f"theta = {_fmt(theta)} rad")
        params = PhaseMatchParams(gamma=gamma, theta=theta, length=cfg.length_um)
        lines.append(f"omega_f = {_fmt(fluorescence_bandwidth(params))} rad/ps")
    else:
        lines.append("gamma = degenerate (gamma_s, gamma_i not of opposite sign: "
                     "each within 2|residual_order1| of 0)")
    try:
        lines.append(f"l_max = {_fmt(validity_bound(solved, omega_p, cfg.pump_bw).l_max)} um")
    except ZeroCurvature:
        lines.append("l_max = inf (zero curvature)")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if cfg.out is not None:
        Path(cfg.out).write_text(report)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    devs = []
    for name, kind, theta, length in VALIDATION_SETS:
        sub = replace(cfg, theta=theta, length_um=length, method="both", tau_steps=201)
        taus = _tau_grid(sub, kind)
        columns = _trace_columns(sub, kind, taus)
        dev = float(np.max(np.abs(columns["P_closed"] - columns["P_quadrature"])))
        print(f"{name}: kind={kind.value} theta={_fmt(theta)} length_um={_fmt(length)} "
              f"max_dev={dev:.3e}")
        devs.append(dev)
    names, _, thetas, lengths = zip(*VALIDATION_SETS)
    _write_csv(cfg, "validate", {"sets": ",".join(names)},
               {"theta": thetas, "length_um": lengths, "max_abs_deviation": devs})
    print(f"overall max deviation: {max(devs):.3e}")
    return 0


_TRACE_FLAGS = ("theta", "length_um", "tau_max", "tau_steps", "method")

# subcommand -> (handler, help, inputs beyond the common ones); a command's
# flags, config keys and CSV meta keys are exactly its _inputs
COMMANDS = {
    "spectrum": (cmd_spectrum, "joint spectral amplitude magnitude grid",
                 ("theta", "length_um", "grid_span", "grid_steps")),
    "hom": (functools.partial(_trace_command, kind=TraceKind.HOM), "dip coincidence trace",
            _TRACE_FLAGS),
    "mz": (functools.partial(_trace_command, kind=TraceKind.MZ), "fringe coincidence trace",
           _TRACE_FLAGS),
    "visibility": (cmd_visibility, "visibility sweep curves",
                   ("length_um", "kind", "sweep_lo", "sweep_hi", "sweep_steps", "thetas")),
    "match": (cmd_match, "solve the matching conditions for a crystal file",
              ("length_um", "crystal", "omega_lo", "omega_hi", "zeta_lo", "zeta_hi")),
    "validate": (cmd_validate, "closed form vs quadrature deviation suite", ()),
}
# match solves for omega_p and gamma and reads neither, but takes them so that
# one setting fits every command (perfbench/workloads.plan passes --omega-p,
# --pump-bw and --gamma to each command it runs, match included)
_COMMON_FLAGS = ("out", "units", "omega_p", "pump_bw", "gamma")
_FLAG_HELP = {
    "out": "output path (CSV, or text for match)",
    "units": "angular-frequency input units: radps, or si for 1/s",
    "method": "closed, quadrature or both",
    "kind": "hom (sweeps pump_bw) or mz (sweeps length_um)",
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes: argparse's default is 2
        raise ValueError(message)


def _build_parser(command: str | None = None) -> _Parser:
    """One subparser per COMMANDS entry; the flag --x-y sets RunConfig.x_y.
    Every subparser is registered, so the usage lines, the help and an
    "invalid choice" error name them all, but given a command only its
    subparser takes flags: main parses one command per call, and building
    all six took 1.1 ms against 0.5 ms for one (2-core Xeon, best of 7)."""
    parser = _Parser(prog="spdcsim", description=__doc__)
    sub = parser.add_subparsers(metavar="command", required=True)
    for name, (_, blurb, _) in COMMANDS.items():
        # no abbreviations: --theta must not parse as visibility's --thetas
        p = sub.add_parser(name, help=blurb, allow_abbrev=False)
        if command not in (None, name):
            continue
        # "-" then a digit starts a value such as -0.5,0.1 or -1e-3, not an option
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.set_defaults(command=name)
        p.add_argument("--config", help="key=value config file")
        for field in _inputs(name):
            p.add_argument("--" + field.replace("_", "-"), type=_PARSERS[field],
                           help=_FLAG_HELP.get(field))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # only the command named first needs its flags; any other first word builds them all
        first = argv[0] if argv and argv[0] in COMMANDS else None
        args = _build_parser(first).parse_args(argv)
        cfg = _resolve_config(args)
        return COMMANDS[args.command][0](cfg)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
