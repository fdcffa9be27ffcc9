"""Command-line front end: spectra, dip/fringe traces, visibility sweeps,
matching-point solves and the closed-form-vs-quadrature validation suite,
all written as deterministic CSV data products.

Config precedence: command-line flag > config-file key > built-in default.
Exit codes: 0 ok, 1 invalid input, 2 numerical non-convergence, 3 I/O.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .biphoton import BiphotonAmplitude, PumpSpectrum, grid, truncation_halfwidth
from .dispersion import (
    DegenerateGammas,
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


class CliError(ValueError):
    pass


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
            raise CliError(f"{', '.join(infinite)} must be finite")
        if not self.thetas:
            raise CliError("thetas must not be empty")
        if self.omega_p <= 0 or self.pump_bw <= 0 or self.gamma <= 0 or self.length_um <= 0:
            raise CliError("omega_p, pump_bw, gamma and length_um must all be > 0")
        if not (-math.pi < self.theta <= math.pi):
            raise CliError("theta must lie in (-pi, pi]")
        if self.tau_max is not None and self.tau_max <= 0:
            raise CliError("tau_max must be > 0")
        if self.grid_span is not None and self.grid_span <= 0:
            raise CliError("grid_span must be > 0")
        for key in ("tau_max", "grid_span"):
            half = getattr(self, key)
            if half is not None and not math.isfinite(2.0 * half):
                raise CliError(f"{key} = {half} gives a window width 2 * {key} that is not finite")
        if self.tau_steps is not None and self.tau_steps < 2:
            raise CliError("tau_steps must be >= 2")
        if self.grid_steps < 2:
            raise CliError("grid_steps must be >= 2")
        if self.method not in ("closed", "quadrature", "both"):
            raise CliError("method must be closed, quadrature or both")
        if self.kind not in ("hom", "mz"):
            raise CliError("kind must be hom or mz")
        if self.units not in ("radps", "si"):
            raise CliError("units must be radps or si")
        if self.sweep_steps < 2:
            raise CliError("sweep_steps must be >= 2")
        if self.sweep_lo is not None and self.sweep_lo <= 0:
            raise CliError("sweep_lo must be > 0")
        if None not in (self.sweep_lo, self.sweep_hi) and self.sweep_lo >= self.sweep_hi:
            raise CliError("sweep_lo must be < sweep_hi")
        for key, points in (("tau_steps", self.tau_steps or 0),
                            ("grid_steps", self.grid_steps ** 2),
                            ("sweep_steps", self.sweep_steps * len(self.thetas))):
            if points > MAX_GRID_POINTS:
                raise CliError(f"{key} = {getattr(self, key)} gives a grid of {points} points, "
                               f"more than {MAX_GRID_POINTS}")

    @property
    def params(self) -> PhaseMatchParams:
        return PhaseMatchParams(omega_p=self.omega_p, gamma=self.gamma,
                                theta=self.theta, length=self.length_um)

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
_ANGULAR_FREQ_KEYS = ("omega_p", "pump_bw", "omega_lo", "omega_hi")


def _parse_kv_file(path: str, what: str) -> dict[str, str]:
    """key=value lines of a `what` ("config" or "crystal") file."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    return raw


def _parse_value(parse, text: str, path: str, key: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{path}: {key}: {exc}") from exc


def _coerce_config(raw: dict[str, str], path: str) -> dict:
    out: dict = {}
    for key, value in raw.items():
        if key not in _PARSERS:
            raise CliError(f"{path}: unknown config key {key!r}")
        out[key] = _parse_value(_PARSERS[key], value, path, key)
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **_coerce_config(_parse_kv_file(args.config, "config"), args.config))
    cfg = replace(cfg, **{name: getattr(args, name) for name in _PARSERS
                          if getattr(args, name, None) is not None})
    if cfg.units == "si":
        # angular frequencies supplied in 1/s: convert to rad/ps
        # (the dip sweep runs over the pump bandwidth)
        keys = _ANGULAR_FREQ_KEYS + (("sweep_lo", "sweep_hi") if cfg.kind == "hom" else ())
        si = {k: getattr(cfg, k) * 1e-12 for k in keys if getattr(cfg, k) is not None}
        cfg = replace(cfg, **si)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return format(float(value), ".9g")


def _meta_lines(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    entries: dict[str, object] = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
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


def _write_csv(cfg: RunConfig, extra_meta: dict | None, columns: dict[str, np.ndarray]) -> None:
    """Meta lines, the header of column names, then one row per index of
    the equal-length columns, each value at %.9g (the bytes of _fmt)."""
    if cfg.out is None:
        cfg = replace(cfg, out="out.csv")
    with open(cfg.out, "w") as fh:
        fh.write("\n".join(_meta_lines(cfg, extra_meta) + [",".join(columns)]) + "\n")
        np.savetxt(fh, np.column_stack(list(columns.values())), fmt="%.9g", delimiter=",")


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------

def _tau_grid(cfg: RunConfig, kind: TraceKind) -> np.ndarray:
    tau_max = cfg.tau_max if cfg.tau_max is not None else delay_span(cfg.params, cfg.pump)
    steps = cfg.tau_steps
    if steps is None:
        steps = 201
        if kind is TraceKind.MZ:
            # at least 40 samples per fringe period, else the fringes alias
            fringe = 2.0 * math.pi / cfg.omega_p
            samples = 2.0 * tau_max / fringe * 40.0
            if not math.isfinite(samples):
                raise CliError(f"omega_p = {cfg.omega_p} gives a fringe step count that is "
                               "not finite; set tau_steps")
            steps = max(steps, int(math.ceil(samples)) + 1)
            if steps > MAX_GRID_POINTS:
                raise CliError(f"tau_max = {tau_max} gives a fringe grid of {steps:.3g} points "
                               f"at omega_p = {cfg.omega_p}, more than {MAX_GRID_POINTS}")
    return np.linspace(-tau_max, tau_max, steps)


def _trace_columns(cfg: RunConfig, kind: TraceKind, taus: np.ndarray) -> dict[str, np.ndarray]:
    """The P_closed and P_quadrature columns that cfg.method asks for; the
    functions are this module's bindings at call time (perfbench patches them)."""
    hom = kind is TraceKind.HOM
    columns = {}
    if cfg.method in ("closed", "both"):
        rate = hom_rate_closed if hom else mz_rate_closed
        cfp = closed_form_params(cfg.params, cfg.pump)
        columns["P_closed"] = np.array([rate(cfp, t) for t in taus])
    if cfg.method in ("quadrature", "both"):
        run = hom_trace_integral if hom else mz_trace_integral
        columns["P_quadrature"] = run(cfg.params, cfg.pump, taus)
    return columns


def _trace_command(cfg: RunConfig, kind: TraceKind) -> int:
    taus = _tau_grid(cfg, kind)
    _write_csv(cfg, {"tau_max_effective": taus[-1], "tau_steps_effective": len(taus)},
               {"tau_ps": taus, **_trace_columns(cfg, kind, taus)})
    return 0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    params, pump = cfg.params, cfg.pump
    span = cfg.grid_span if cfg.grid_span is not None else truncation_halfwidth(
        params, pump, lobes=3.0, sigmas=3.0)
    center = 0.5 * cfg.omega_p
    iv = Interval(center - span, center + span)
    g = grid(BiphotonAmplitude(params=params, pump=pump), iv, iv, cfg.grid_steps)
    n_s, n_i = g.values.shape
    _write_csv(cfg, {"grid_span_effective": span},
               {"omega_s": np.repeat(g.axis_s, n_i), "omega_i": np.tile(g.axis_i, n_s),
                "abs_A": g.values.ravel()})
    return 0


def cmd_hom(cfg: RunConfig) -> int:
    return _trace_command(cfg, TraceKind.HOM)


def cmd_mz(cfg: RunConfig) -> int:
    return _trace_command(cfg, TraceKind.MZ)


def cmd_visibility(cfg: RunConfig) -> int:
    kind = TraceKind(cfg.kind)
    if cfg.sweep_lo is None or cfg.sweep_hi is None:
        raise CliError("visibility needs sweep_lo and sweep_hi")
    xs = np.linspace(cfg.sweep_lo, cfg.sweep_hi, cfg.sweep_steps)
    vs = sweep_visibility(kind, cfg.params, cfg.pump, cfg.thetas, xs)
    # rows run sweep-major, theta-minor
    _write_csv(cfg, {"swept": "pump_bandwidth" if kind is TraceKind.HOM else "crystal_length"},
               {"sweep_value": np.repeat(xs, len(cfg.thetas)),
                "theta": np.tile(cfg.thetas, len(xs)), "visibility": vs.T.ravel()})
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
                raise CliError(f"{path}: {key}: coefficient order must be >= 0, got {order}")
            coeffs[parts[1]][order] = _parse_value(float, value, path, key)
        elif parts[0] == "validity" and len(parts) == 2 and parts[1] in ("lo", "hi"):
            validity[parts[1]] = _parse_value(float, value, path, key)
        elif parts[0] == "knob" and len(parts) == 2 and parts[1] in ("branch", "order"):
            knob[parts[1]] = _parse_value(str if parts[1] == "branch" else int, value, path, key)
        else:
            raise CliError(f"{path}: unknown crystal key {key!r}")
    if "lo" not in validity or "hi" not in validity:
        raise CliError(f"{path}: validity.lo and validity.hi are required")
    branches = {}
    for name, cmap in coeffs.items():
        if not cmap:
            raise CliError(f"{path}: branch.{name} has no coefficients")
        branches[name] = PolynomialBranch([cmap.get(j, 0.0) for j in range(max(cmap) + 1)])
    spec = None
    if knob:
        if "branch" not in knob or "order" not in knob:
            raise CliError(f"{path}: knob needs both knob.branch and knob.order")
        spec = KnobSpec(branch=knob["branch"], order=knob["order"])
    return DispersionModel(k_p=branches["p"], k_s=branches["s"], k_i=branches["i"],
                           validity=Interval(validity["lo"], validity["hi"]), knob=spec)


def cmd_match(cfg: RunConfig) -> int:
    if cfg.crystal is None:
        raise CliError("match needs --crystal")
    missing = [k for k in ("omega_lo", "omega_hi", "zeta_lo", "zeta_hi")
               if getattr(cfg, k) is None]
    if missing:
        raise CliError(f"match needs {', '.join(missing)}")
    model = _parse_crystal_file(cfg.crystal)
    omega_p, zeta = solve_epm(model, Interval(cfg.omega_lo, cfg.omega_hi),
                              Interval(cfg.zeta_lo, cfg.zeta_hi))
    solved = model.with_zeta(zeta) if model.knob is not None else model
    lines = [f"omega_p = {_fmt(omega_p)} rad/ps", f"zeta = {_fmt(zeta)}"]
    for order in range(4):
        lines.append(f"residual_order{order} = {_fmt(check_condition(solved, omega_p, order))}")
    gs, gi = taylor_gammas(solved, omega_p)
    lines.append(f"gamma_s = {_fmt(gs)} ps/um")
    lines.append(f"gamma_i = {_fmt(gi)} ps/um")
    try:
        gamma, theta = polar_params(gs, gi)
    except DegenerateGammas:
        lines.append("gamma = degenerate (gamma_s = gamma_i = 0, first-order model invalid)")
    else:
        lines.append(f"gamma = {_fmt(gamma)} ps/um")
        lines.append(f"theta = {_fmt(theta)} rad")
        params = PhaseMatchParams(omega_p=omega_p, gamma=gamma, theta=theta,
                                  length=cfg.length_um)
        try:
            lines.append(f"omega_f = {_fmt(fluorescence_bandwidth(params))} rad/ps")
        except ValueError:
            lines.append("omega_f = inf (gamma_s = gamma_i)")
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
        sub = replace(cfg, theta=theta, length_um=length, method="both")
        taus = np.linspace(-1, 1, 201) * delay_span(sub.params, sub.pump)
        columns = _trace_columns(sub, kind, taus)
        dev = float(np.max(np.abs(columns["P_closed"] - columns["P_quadrature"])))
        print(f"{name}: kind={kind.value} theta={_fmt(theta)} length_um={_fmt(length)} "
              f"max_dev={dev:.3e}")
        devs.append(dev)
    names, _, thetas, lengths = zip(*VALIDATION_SETS)
    _write_csv(cfg, {"sets": ",".join(names)},
               {"theta": thetas, "length_um": lengths, "max_abs_deviation": devs})
    print(f"overall max deviation: {max(devs):.3e}")
    return 0


_TRACE_FLAGS = ("tau_max", "tau_steps", "method")

# subcommand -> (handler, help, flags beyond the common ones)
COMMANDS = {
    "spectrum": (cmd_spectrum, "joint spectral amplitude magnitude grid",
                 ("grid_span", "grid_steps")),
    "hom": (cmd_hom, "dip coincidence trace", _TRACE_FLAGS),
    "mz": (cmd_mz, "fringe coincidence trace", _TRACE_FLAGS),
    "visibility": (cmd_visibility, "visibility sweep curves",
                   ("kind", "sweep_lo", "sweep_hi", "sweep_steps", "thetas")),
    "match": (cmd_match, "solve the matching conditions for a crystal file",
              ("crystal", "omega_lo", "omega_hi", "zeta_lo", "zeta_hi")),
    "validate": (cmd_validate, "closed form vs quadrature deviation suite", ()),
}
_COMMON_FLAGS = ("out", "units", "omega_p", "pump_bw", "gamma", "theta", "length_um")
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
        raise CliError(message)


def _build_parser() -> _Parser:
    """One subparser per COMMANDS entry; the flag --x-y sets RunConfig.x_y."""
    parser = _Parser(prog="spdcsim", description=__doc__)
    sub = parser.add_subparsers(metavar="command", required=True)
    for command, (_, blurb, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=blurb)
        # "-" then a digit starts a value such as -0.5,0.1 or -1e-3, not an option
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.set_defaults(command=command)
        p.add_argument("--config", help="key=value config file")
        for name in _COMMON_FLAGS + flags:
            p.add_argument("--" + name.replace("_", "-"), type=_PARSERS[name],
                           help=_FLAG_HELP.get(name))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        return COMMANDS[args.command][0](cfg)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
