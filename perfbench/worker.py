"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the input-table row, a work directory, whether
to trace, whether to record the numpy/BLAS environment, and the path the
pass writes its JSON result to.  A pass imports
`spdcsim.cli`, runs the workload's CLI calls through `spdcsim.cli.main`,
times them, reads peak RSS, then checks the outputs.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

COMMANDS = ("spectrum", "hom", "mz", "visibility", "match", "validate")


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def csv_counts(calls) -> tuple[int, int]:
    rows = size = 0
    for call in calls:
        path = Path(call.out)
        if path.suffix == ".csv":
            text = path.read_text()
            rows += len(workloads.data_section(text)) - 1
            size += len(text.encode())
    return rows, size


def layer_metrics(tracer: Tracer, calls) -> dict[str, float]:
    spans = tracer.spans
    out = {
        "interferometry.quad_cold_s": spans["interferometry.quad_cold"][1],
        "interferometry.quad_cold_calls": spans["interferometry.quad_cold"][0],
        "interferometry.quad_warm_s": spans["interferometry.quad_warm"][1],
        "interferometry.quad_warm_calls": spans["interferometry.quad_warm"][0],
        "interferometry.quad_delays": tracer.counts["interferometry.quad_delays"],
        "interferometry.engine_reuse_ratio": tracer.engine_reuse_ratio(),
        "interferometry.closed_s": spans["interferometry.closed"][1],
        "interferometry.closed_calls": spans["interferometry.closed"][0],
        "numerics.erf_s": spans["numerics.erf"][1],
        "numerics.erf_calls": spans["numerics.erf"][0],
        "biphoton.grid_s": spans["biphoton.grid"][1],
        "biphoton.grid_points": tracer.counts["biphoton.grid_points"],
        "dispersion.solve_s": spans["dispersion.solve"][1],
        "dispersion.solve_calls": spans["dispersion.solve"][0],
    }
    out["cli.self_s"] = sum(spans["cli." + name][2] for name in COMMANDS)
    for name in COMMANDS:
        out[f"cli.{name}_s"] = spans["cli." + name][1]
    out["cli.csv_rows"], out["cli.csv_bytes"] = csv_counts(calls)
    return out


def run_pass(spec: dict) -> dict:
    import spdcsim.cli as cli
    import spdcsim.interferometry as interferometry

    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.plan(spec["workload"], spec["row"], workdir)
    tracer = Tracer() if spec["trace"] else None
    patches = tracer.install(cli, interferometry) if tracer else []
    result = {"problems": [], "call_s": {}}
    wall = 0.0
    for call in calls:
        t0 = perf_counter()
        rc = (tracer.call("cli." + call.command, cli.main, list(call.argv)) if tracer
              else cli.main(list(call.argv)))
        dt = perf_counter() - t0
        wall += dt
        result["call_s"][Path(call.out).name] = dt
        if rc != 0:
            result["problems"].append(f"{call.command} exited {rc}")
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer and spec["workload"] == "fringe_scan":
        # the traced run's one extra call: the same inputs again, so the
        # evaluation-only (warm) time of the fringe grid is visible
        for attr, args, kwargs, first in list(tracer.cold_calls):
            again = getattr(cli, attr)(*args, **kwargs)
            if not (first == again).all():
                result["problems"].append(f"repeated {attr} call gave different values")
    Tracer.uninstall(patches)
    if not result["problems"]:
        result["problems"] = workloads.check(spec["workload"], spec["row"], calls,
                                             workloads.load_golden())
    if tracer:
        result["layers"] = layer_metrics(tracer, calls)
    result["ok"] = not result["problems"]
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = run_pass(spec)
    except Exception:  # a failed pass is a result, not a crash of the benchmark
        result = {"ok": False, "problems": [traceback.format_exc()]}
    if spec.get("env"):
        result["env"] = blas_info()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
