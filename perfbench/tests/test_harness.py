"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Runs real traced passes (about two minutes on a 2-core machine): the cold
and warm quadrature counts guard against passes sharing the in-process
engine cache, which would quietly turn cold builds into cache hits.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(tmp_path, workload: str) -> dict:
    result = run.run_pass(workload, 0, True, run._env(), tmp_path, 0, want_env=False)
    assert result["ok"], result["problems"]
    return result["layers"]


def test_validate_pass_builds_three_settings_and_reuses_each(tmp_path):
    layers = traced_pass(tmp_path, "validate")
    assert layers["interferometry.quad_cold_calls"] == 3
    assert layers["interferometry.quad_warm_calls"] == 3
    assert layers["interferometry.quad_delays"] == 3 * 201
    assert layers["cli.csv_rows"] == 6


def test_fringe_pass_builds_once(tmp_path):
    layers = traced_pass(tmp_path, "fringe_scan")
    assert layers["interferometry.quad_cold_calls"] == 1
    # the traced run's one extra call: the same inputs again, evaluation only
    assert layers["interferometry.quad_warm_calls"] == 1
    assert layers["interferometry.quad_delays"] == layers["cli.csv_rows"] == 7975
    assert layers["numerics.erf_calls"] == 0


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, section):
    metrics = run_benchmark("closed_products", trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    design = json.loads((HERE / "design.json").read_text())
    predicted = {row["layer_metric"] for row in design["predictions"]}
    assert predicted <= {m["name"] for m in BENCHMARK["per_layer"]}


def test_seed_selects_inputs():
    assert workloads.inputs(workloads.table_row(0)) == workloads.DEFAULTS
    assert workloads.inputs(workloads.table_row(7)) == workloads.inputs(workloads.table_row(7))
    for row in range(1, workloads.TABLE_ROWS):
        for key, value in workloads.inputs(row).items():
            assert abs(value / workloads.DEFAULTS[key] - 1.0) <= workloads.JITTER


def test_reference_covers_every_row_and_work_stays_in_band():
    golden = workloads.load_golden()
    assert set(golden["rows"]) == {str(r) for r in range(workloads.TABLE_ROWS)}
    for count in ("fringe_delays", "closed_products_csv_rows"):
        values = [w[count] for w in golden["work"].values()]
        assert max(values) / min(values) < 1.1, count
