"""spdcsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  Workloads are closed loop with one client:
one pass at a time, each pass a fresh interpreter running `perfbench/worker.py`,
so no pass sees another pass's in-process engine cache.

--trace 0 measures the end-to-end metrics with tracing off: passes for S
seconds (no pass starts that the median pass so far says would end after
S; at least one pass), reporting the median `wall_s` and `peak_rss_mb`, and
`setup_s`, the median over fresh interpreters importing `spdcsim.cli`, half
of them before the passes and half after.
--trace 1 alternates untraced and traced passes for S seconds the same way
(at least one of each) and reports the per-layer metrics of the median
traced pass plus `trace_overhead_s`.

The last line of stdout is the result object; the line before it is a
record with the environment, samples and quartiles, also written to
`perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
# a run must end within 180 s: no pass starts after PASS_DEADLINE_S, and a
# pass still running at RUN_LIMIT_S is killed and counted as failed
PASS_DEADLINE_S = 100.0
RUN_LIMIT_S = 170.0
T0 = perf_counter()
THREADS_NOTE = ("every workload uses the CLI default --threads 1; BLAS keeps its default "
                "thread count, so worker threads would oversubscribe the cores")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    """HEAD read from the checkout's own .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [ordered[0]] * 3
    return {"n": len(ordered), "median": statistics.median(ordered), "p25": q[0], "p75": q[2],
            "min": ordered[0], "max": ordered[-1]}


def measure_setup(env, probes: int) -> list[float]:
    """Seconds from a fresh interpreter to `spdcsim.cli` imported."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import spdcsim.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def run_pass(workload: str, row: int, trace: bool, env, workdir: Path, index: int,
             want_env: bool) -> dict:
    passdir = workdir / f"pass{index}"
    result_path = workdir / f"pass{index}.json"
    spec = {"workload": workload, "row": row, "trace": trace, "workdir": str(passdir),
            "result": str(result_path), "env": want_env}
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - T0)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "problems": [f"pass still running {RUN_LIMIT_S} s into the run"]}
    if proc.returncode != 0 or not result_path.is_file():
        return {"ok": False, "problems": [f"worker exited {proc.returncode}: {err[-2000:]}"]}
    result = json.loads(result_path.read_text())
    shutil.rmtree(passdir, ignore_errors=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "spdcsim" / "cli.py").is_file():
        print(f"error: no spdcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    row = workloads.table_row(args.seed)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record: dict = {
        "workload": args.workload, "seed": args.seed, "table_row": row,
        "inputs": workloads.inputs(row), "trace": args.trace, "seconds": args.seconds,
        "load": "closed loop, 1 client, 1 pass at a time, each pass a fresh interpreter",
        "threads": THREADS_NOTE,
        "env": {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(), "python": platform.python_version(),
                "git_commit": git_commit()},
    }
    try:
        if not args.trace:
            # the first probe may compile bytecode and is discarded; the rest
            # are split around the passes so host speed drift during the run
            # reaches setup_s the way it reaches wall_s
            record["setup_s_samples"] = measure_setup(env, SETUP_PROBES // 2 + 1)[1:]
        t_start = perf_counter()
        passes, pass_s = [], []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t_pass = perf_counter()
            result = run_pass(args.workload, row, traced, env, workdir, len(passes),
                              want_env=not passes)
            pass_s.append(perf_counter() - t_pass)
            result["traced"] = traced
            passes.append(result)
            elapsed = perf_counter() - t_start
            have_both = not args.trace or len(passes) >= 2
            # no pass starts that would end after S seconds, judged by the
            # median pass so far, so a run of long passes keeps to its budget
            if have_both and (elapsed + statistics.median(pass_s) > args.seconds
                              or elapsed >= PASS_DEADLINE_S):
                break
        if not args.trace:
            record["setup_s_samples"] += measure_setup(env, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["env"].update(passes[0].get("env", {}))
    failed = sum(1 for p in passes if not p["ok"])
    record["attempted"], record["failed"] = len(passes), failed
    record["fail_ratio"] = failed / len(passes)
    record["problems"] = [p["problems"] for p in passes if not p["ok"]]
    ok = [p for p in passes if p["ok"]]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    metrics: dict = {}
    if untraced:
        record["wall_s"] = quartiles([p["wall_s"] for p in untraced])
        record["peak_rss_mb"] = quartiles([p["peak_rss_mb"] for p in untraced])
        record["call_s"] = [p["call_s"] for p in untraced]
    if not args.trace and untraced:
        record["setup_s"] = quartiles(record["setup_s_samples"])
        metrics = {
            "wall_s": {"value": record["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"]["median"], "unit": "MiB"},
        }
    elif args.trace and traced and untraced:
        record["traced_wall_s"] = quartiles([p["wall_s"] for p in traced])
        median_pass = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(median_pass["layers"])
        layers["trace_overhead_s"] = record["traced_wall_s"]["median"] - record["wall_s"]["median"]
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
