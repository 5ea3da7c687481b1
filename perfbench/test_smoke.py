"""Smoke test of the benchmark at tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from workloads import END_TO_END, WORKLOADS, per_layer_metrics  # noqa: E402


def test_benchmark_json_matches_tables():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == per_layer_metrics()
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct(name):
    result = bench.run_workload(name, seed=5, seconds=1, trace=0, tiny=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [m[0] for m in END_TO_END]
    assert 0.0 <= metrics.pop("quality_f1") <= 1.0   # one epoch on a tiny corpus may reach 0
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_same_seed_runs_agree():
    first = bench.run_workload("train-k8", seed=7, seconds=1, trace=0, tiny=True)
    report = os.path.join(bench.OUT_DIR, "report-train-k8-s7-t0.json")
    with open(report, encoding="utf-8") as fh:
        history = json.load(fh)["children"][0]["train"]["history"]
    second = bench.run_workload("train-k8", seed=7, seconds=1, trace=0, tiny=True)
    with open(report, encoding="utf-8") as fh:
        assert json.load(fh)["children"][0]["train"]["history"] == history
    assert first["metrics"]["quality_f1"] == second["metrics"]["quality_f1"]


@pytest.mark.parametrize("name", ["train-k8", "train-bce", "predict-k8"])
def test_tiny_traced_run(name):
    result = bench.run_workload(name, seed=5, seconds=1, trace=1, tiny=True)
    assert result["correct"], result["problems"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [m[0] for m in per_layer_metrics()]
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["encoder.encode.calls"] > 0
    if name == "train-k8":
        assert metrics["matching.hungarian.calls"] > 0
        assert metrics["tensor.tape_nodes_per_sample"] > 0
    if name == "train-bce":
        assert metrics["decoder.decode.calls"] == 0 and metrics["decoder.bce_head.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-k8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
