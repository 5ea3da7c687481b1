"""Benchmark for labelset: training, evaluation and serving throughput,
latency, quality, set-up time and memory, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own processes, one at a time, with BLAS pinned to
one thread.  Inputs are generated from ``--seed`` with
``labelset.data.generate_synthetic`` and ``write_jsonl``; the program only
sees those JSONL files and the checkpoints trained from them.  With
``--trace 0`` the last stdout line is one JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which is checked to reproduce an untraced run bit for bit.
Without ``--workload`` (or with ``all``) every workload runs in turn.
Reports go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
PROBES = 2               # set-up probes before and after the measured process
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
from workloads import END_TO_END, WORKLOADS, per_layer_metrics, tiny as tiny_workload  # noqa: E402


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def find_program() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "labelset", "__init__.py")):
        raise BenchError(f"no labelset sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def write_inputs(workload, seed: int, work_dir: str) -> dict:
    """Train/valid/test splits and a labelled serving file, all from ``seed``;
    returns their paths and the run configuration overrides."""
    from labelset.data import SyntheticSpec, generate_synthetic, write_jsonl

    spec = SyntheticSpec(seed=seed, **workload.spec)
    paths = {}
    splits = generate_synthetic(spec)
    for name, records in zip(("train", "valid", "test"), splits):
        paths[f"{name}_path"] = os.path.join(work_dir, f"{name}.jsonl")
        write_jsonl(paths[f"{name}_path"], records)
    # a second stream from the same recipe; its seed is derived, never a corpus seed
    serve_spec = SyntheticSpec(**{**workload.spec, "seed": seed + 1_000_003,
                                  "train_size": workload.serve_records,
                                  "valid_size": 0, "test_size": 0})
    paths["serve_path"] = os.path.join(work_dir, "serve.jsonl")
    write_jsonl(paths["serve_path"], generate_synthetic(serve_spec)[0])
    config = dict(workload.config)
    if workload.min_slots:   # the library default is the largest gold set plus two
        largest = max(len(record.labels) for record in splits[0])
        config["num_queries"] = max(workload.min_slots, largest + 2)
    return paths, config


def launch(plan_path: str, mode: str, trace: int = 0, fixed: int = 0) -> tuple[float, dict | None]:
    """Run one worker process; return its set-up time (launch to ``READY``)
    and its result, which for a probe holds only the host-speed scale."""
    cmd = [sys.executable, WORKER, "--plan", plan_path, "--mode", mode,
           "--trace", str(trace), "--fixed", str(fixed)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        return ready, None
    if mode == "probe":
        return ready, {"setup_scale": float(rest.split()[-1])}
    result_path = os.path.join(os.path.dirname(plan_path), f"result-{mode}-trace{trace}.json")
    with open(result_path, encoding="utf-8") as fh:
        return ready, json.load(fh)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def rates(units, normalized: bool) -> list[float]:
    """Samples per second of each [seconds, samples, scale] unit."""
    return [n / (seconds * scale if normalized else seconds) for seconds, n, scale in units]


def end_to_end(main: dict, train: dict, setups: list, normalized: bool = True) -> dict:
    """The end-to-end metrics, in normalized time unless asked for wall time."""
    serving = main["serving"]
    latencies_ms = sorted(1000.0 * seconds * (scale if normalized else 1.0)
                          for seconds, _, scale in serving["latency"])
    return {
        "setup_s": statistics.median(seconds * (scale if normalized else 1.0)
                                     for seconds, scale in setups),
        "train_samples_per_s": statistics.median(rates(train["epochs"], normalized)),
        "eval_samples_per_s": statistics.median(rates(serving["eval"], normalized)),
        "predict_samples_per_s": statistics.median(rates(serving["cli"], normalized)),
        "predict_latency_ms.p50": percentile(latencies_ms, 0.50),
        "quality_f1": main["quality_f1"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def sample_counts(main: dict, train: dict, setups: list) -> dict:
    """What each metric was taken over, for the printed table.  The latency
    tail goes here, not into the metrics: on a shared host its spread across
    seeds (12-28% for p99, 11-17% for p90) is too wide for any bound."""
    serving = main["serving"]
    latencies_ms = sorted(1000.0 * seconds * scale for seconds, _, scale in serving["latency"])
    tail = ", ".join(f"p{int(100 * q)} {percentile(latencies_ms, q):.3f} ms" for q in (0.9, 0.99))
    return {
        "setup_s": f"{len(setups)} process launches",
        "train_samples_per_s": f"{len(train['epochs'])} epochs of {train['train_size']} samples",
        "eval_samples_per_s": f"{len(serving['eval'])} passes, "
                              f"{sum(n for _, n, _ in serving['eval'])} samples",
        "predict_samples_per_s": f"{len(serving['cli'])} CLI passes of "
                                 f"{serving['records']} records",
        "predict_latency_ms.p50": f"{len(latencies_ms)} calls; tail {tail}",
        "quality_f1": "validation F1 after the last epoch" if main.get("train")
                      else f"F1 of the CLI output over {serving['records']} labelled records",
        "peak_rss_mb": "measured process",
    }


def finish(main: dict) -> None:
    """Workload-level quality: validation F1 after the last epoch when the
    run trains, else F1 of the CLI output against the input's gold labels."""
    main["quality_f1"] = main["train"]["valid_f1"] if main.get("train") else main["file_f1"]


def run_workload(name: str, seed: int, seconds: int, trace: int, tiny: bool = False) -> dict:
    """Run one workload; return the result object printed as the last line."""
    workload = WORKLOADS[name]
    if tiny:
        workload = tiny_workload(workload)
    find_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{name}-s{seed}-t{trace}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return _run(workload, seed, seconds, trace, tiny, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, tiny, work_dir) -> dict:
    paths, config = write_inputs(workload, seed, work_dir)
    plan = {"seed": seed, "seconds": seconds, "epochs": workload.epochs, "config": config,
            "train_in_run": workload.train_in_run, "work_dir": work_dir, **paths}
    plan_path = os.path.join(work_dir, "plan.json")

    def save_plan():
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

    save_plan()
    results, problems = [], []

    def child(mode, trace=0, fixed=0):
        ready, result = launch(plan_path, mode, trace, fixed)
        if result is None:
            raise BenchError(f"{workload.name}: {mode} process failed")
        if mode != "probe":
            results.append(result)
        return ready, result

    train = None
    if not workload.train_in_run:
        _, prepared = child("prepare")
        train = prepared["train"]
        plan["checkpoint"] = prepared["checkpoint"]
        save_plan()

    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        _, plain = child("run", fixed=1)
        _, traced = child("run", trace=1, fixed=1)
        for result in (plain, traced):
            finish(result)
        neutral = {
            "history": plain.get("train", {}).get("history") == traced.get("train", {}).get("history"),
            "quality_f1": plain["quality_f1"] == traced["quality_f1"],
            "eval_f1": plain["eval_f1"] == traced["eval_f1"],
            "predictions": plain["output_sha256"] == traced["output_sha256"],
        }
        for key, ok in neutral.items():
            if not ok:
                problems.append(f"traced run differs from untraced run in {key}")
        cross = traced["matching_cross_check"]
        if cross["mismatches"]:
            problems.append(f"{cross['mismatches']} of {cross['checked']} hungarian results "
                            "disagree with the cross-check")
        metrics = dict(traced["trace"])
        metrics["trace.overhead"] = plain["timed_seconds"] / traced["timed_seconds"]
        units = {n: u for n, u, _ in per_layer_metrics()}
        report["matching_cross_check"] = cross
        report["spans"] = os.path.join(OUT_DIR, f"spans-{workload.name}-s{seed}.jsonl")
        shutil.copyfile(os.path.join(work_dir, "spans.jsonl"), report["spans"])
        counts = {}
    else:
        def probe():
            ready, result = child("probe")
            return ready, result["setup_scale"]

        probes = 1 if tiny else PROBES
        setups = [probe() for _ in range(probes)]
        ready, main = child("run")
        setups += [(ready, main["setup_scale"])] + [probe() for _ in range(probes)]
        finish(main)
        train = train or main["train"]
        metrics = end_to_end(main, train, setups)
        report["wall_time_metrics"] = end_to_end(main, train, setups, normalized=False)
        counts = sample_counts(main, train, setups)
        units = {n: u for n, u, _, _ in END_TO_END}

    for result in results:
        for check, ok in result.get("checks", {}).items():
            if not ok:
                problems.append(f"check failed: {check}")
        problems.extend(result.get("errors", []))
    for key, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite")
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    report.update({
        "problems": problems, "counts": counts,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "children": results,
    })
    with open(os.path.join(OUT_DIR, f"report-{workload.name}-s{seed}-t{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {"correct": not problems and failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": report["metrics"], "problems": problems,
            "counts": counts}


def print_result(name: str, result: dict) -> None:
    for key, metric in result["metrics"].items():
        note = result["counts"].get(key, "")
        print(f"{name:<11} {key:<38} {metric['value']:>14.6g} {metric['unit']:<12} {note}")
    print(f"{name:<11} failed_fraction {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"{name:<11} PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="labelset benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
