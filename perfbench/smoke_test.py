"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 -m pytest -q perfbench/smoke_test.py

Every workload runs untraced and traced; every metric that BENCHMARK.json
names appears with its unit; an injected wrong answer raises fail_ratio
above 0; and without the package the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"sweep": "4", "queries": "10", "lemmas": "1"}
REPORT_ONLY = ("hilbert_p50_ms", "height_p50_ms", "class-number_p50_ms", "enumerate_p50_ms", "fail_ratio")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--limit", TINY[workload], *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def result(lines: list) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_reports_every_end_to_end_metric(workload):
    proc, lines = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    report = "\n".join(lines[:-1])
    assert "fail_ratio" in report and "ratio" in report
    assert "wall clock" in report and "reference speed" in report
    if workload == "queries":
        for name in REPORT_ONLY:
            assert name in report


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_reports_every_per_layer_metric(workload):
    proc, lines = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["trace.overhead"] > 0
    if workload == "lemmas":
        assert metrics["laurent.mul.calls"] == 0
        assert metrics["polyring.Poly.divmod.calls"] > 0
    else:
        assert metrics["laurent.mul.calls"] > 0
        assert metrics["laurent.mul.coeff_ops"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_injected_wrong_answer_counts_as_failed(workload):
    proc, lines = bench(workload, 0, "--inject-fault")
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert not res["correct"] and res["failed"] > 0
    ratio = [line.split() for line in lines if line.split()[:1] == ["fail_ratio"]]
    assert ratio and float(ratio[0][1]) > 0


def test_partial_batch_pools_per_op():
    sys.path.insert(0, str(HERE))
    import run

    whole = {"units": [[1.0, 1, "a"], [3.0, 1, "b"]], "peak_rss_mb": 40.0}
    partial = {"units": [[2.0, 1, "a"]], "peak_rss_mb": 30.0}  # a budgeted batch that stopped after one op
    assert sorted(run.pooled([whole, partial])) == [[1.5, 1, "a"], [3.0, 1, "b"]]
    metrics, _, _ = run.end_to_end([whole, partial], [0.5])
    assert metrics["ops_per_s"] == 2 / 4.5


def test_speed_index_scales_by_host_speed():
    sys.path.insert(0, str(HERE))
    import speed

    idx = speed.SpeedIndex()
    idx.starts = [0.05 * i for i in range(40)]
    idx.durations = [2 * speed.REFERENCE_S] * 40  # a host at half the reference speed
    ref, net = idx.normalise(0.01, 0.99)  # holds the 19 samples from 0.05 to 0.95
    assert net == pytest.approx(0.98 - 19 * 2 * speed.REFERENCE_S)
    assert ref == pytest.approx(net / 2)
    short_ref, _ = idx.normalise(0.51, 0.52)  # no sample inside: the nearest ones
    assert short_ref == pytest.approx(0.005)


def test_budget_stops_a_batch():
    cmd = [sys.executable, "perfbench/worker.py", "--workload", "sweep", "--seed", "7", "--mode", "run"]
    proc = subprocess.run(cmd + ["--limit", "4", "--budget", "0"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["units"] == []


def test_fails_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, lines = bench("sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
