"""Tests of the benchmark itself (not collected by the project's test run).

    python3 -m pytest -q perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import LAYER_METRICS, Tracer, self_times
from worker import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),      # children a and b of root overlap on [3, 4]
        ("b", 3.0, 6.0, 0),
        ("c", 2.0, 3.0, 1),      # nested one level deeper, inside a
        ("d", 9.0, 12.0, 0),     # sticks out of root: only [9, 10] is covered
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_enters_a_layer_once_and_uninstalls():
    class Law:
        def __init__(self, inner=None):
            self.inner = inner

        def cdf(self, x):
            return self.inner.cdf(x) if self.inner else x

    def count(args, kwargs):
        tracer.counts["service.cdf.calls"] += 1
        return args, kwargs

    original = Law.cdf
    tracer = Tracer()
    tracer.patch(Law, "cdf", "service.cdf", on_entry=count)
    assert tracer.span("root", Law(Law()).cdf, 0.5) == 0.5
    assert [s[0] for s in tracer.spans] == ["root", "service.cdf"]
    assert tracer.counts["service.cdf.calls"] == 1
    metrics = tracer.metrics()
    assert set(metrics) == set(LAYER_METRICS)
    tracer.uninstall()
    assert Law.cdf is original


def _bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _last_json(_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_layers_and_leaves_results_unchanged(workload):
    result = _last_json(_bench(workload, 1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads((ROOT / ".perfbench_out" /
                         f"record-{workload}-7-trace1.json").read_text())
    shas = {r["result_sha"] for r in record["runs"] + record["traced_runs"]}
    assert len(record["traced_runs"]) >= 1 and len(shas) == 1
    for run in record["traced_runs"]:
        assert run["accounted"] == pytest.approx(1.0, abs=1e-3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mc_small_n", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
