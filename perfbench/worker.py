"""One workload process: set up, report readiness, run the timed work.

run.py starts this script with a plan file that names the inputs, the
settings and the time budget.  The process prints ``READY`` on stdout once
it could take its first timed operation, so the parent can time set-up from
launch to that line, and writes its measurements next to the plan.

Modes: ``probe`` stops after set-up; ``prepare`` trains the checkpoint a
serving workload uses; ``run`` does the timed work.  With ``--fixed 1`` the
work is a fixed amount (one training, then one pass of each serving
operation) instead of filling the time budget, so a traced and an untraced
process do the same work and can be compared bit for bit.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVAL_CHUNK = 250      # records per evaluation unit
LATENCY_CHUNK = 200   # Model.predict calls per latency unit
SERVING_OPS = ("eval", "cli", "latency")
SERVING_SHARES = {"eval": 0.25, "cli": 0.45, "latency": 0.3}   # of the serving time
SERVING_SHARE = 0.25  # of the time while training goes on, spent serving between epochs
FINAL_SHARE = 0.1     # of --seconds, kept after training for serving on the final models
REFERENCE_S = 0.002   # reference-kernel time of the host that normalized times refer to
HOST_WINDOW_S = 0.5   # reference samples this close to a unit of work describe its host speed
SAMPLE_EVERY_S = 0.1  # reference samples inside long units of work, at most this often


class _Node:
    __slots__ = ("data", "parent", "backward")

    def __init__(self, data, parent, backward):
        self.data, self.parent, self.backward = data, parent, backward


class HostSpeed:
    """Times a fixed reference kernel between units of work.

    The shared host this runs on changes speed by up to 2x over seconds to
    minutes.  A unit's normalized time is its wall time scaled by
    ``REFERENCE_S`` over the median kernel time sampled around it: the time
    it would have taken on a host where the kernel takes ``REFERENCE_S``.
    The kernel imitates labelset's work (small matrix products, row
    normalizations and softmaxes recorded on a tape of Python objects, then
    replayed backwards) without calling labelset, so changes to the program
    do not change the reference.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = [rng.random((64, 64)) * 0.1 for _ in range(4)]
        self._input = rng.random((12, 64))
        self.samples: list[tuple[float, float]] = []   # (time, kernel seconds)
        self.spent = 0.0      # kernel seconds so far, subtracted from the units they fall in
        self.active = True    # off when nothing is normalized (fixed-work runs)
        self.in_cli = False   # set during ``labelset predict`` passes

    def _kernel(self) -> None:
        tape = []
        for _ in range(12):
            x = self._input
            for w in self._weights:
                h = x @ w
                h = (h - h.mean(axis=-1, keepdims=True)) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
                e = np.exp(h - h.max(axis=-1, keepdims=True))
                h = e / e.sum(axis=-1, keepdims=True)
                tape.append(_Node(h, x, lambda g, w=w: g @ w.T))
                x = h
            for node in reversed(tape):
                node.backward(node.data)
            tape.clear()

    def sample(self, repeats: int = 1) -> None:
        if not self.active:
            return
        for _ in range(repeats):
            begin = time.perf_counter()
            self._kernel()
            seconds = time.perf_counter() - begin
            self.samples.append((begin, seconds))
            self.spent += seconds

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def sample_inside_units(self) -> None:
        """Sample inside long units too: between the batches
        ``training.batch_iterator`` yields (training epochs, evaluation) and,
        while ``in_cli`` is set, between the records ``labelset predict``
        labels.  The kernel's time is subtracted from the unit it falls in."""
        from labelset import training
        from labelset.model import Model

        batches, predict = training.batch_iterator, Model.predict

        def batch_iterator(*args, **kwargs):
            for batch in batches(*args, **kwargs):
                self.maybe_sample()
                yield batch

        def sampled_predict(model, *args, **kwargs):
            if self.in_cli:
                self.maybe_sample()
            return predict(model, *args, **kwargs)

        training.batch_iterator = batch_iterator
        Model.predict = sampled_predict

    def scale(self, begin: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time sampled near [begin, end]."""
        near = [s for t, s in self.samples
                if begin - HOST_WINDOW_S <= t <= end + HOST_WINDOW_S]
        if not near:   # no sample within the window: use the closest one
            near = [min(self.samples, key=lambda ts: abs(ts[0] - (begin + end) / 2))[1]]
        near.sort()
        return REFERENCE_S / near[len(near) // 2]


class Run:
    """Counters and checks of one workload process."""

    def __init__(self, plan: dict, fixed: bool):
        self.plan = plan
        self.fixed = fixed
        self.started = 0.0
        self.attempted = 0
        self.failed = 0
        self.train_samples = 0   # training samples processed
        self.host = HostSpeed()
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        self.out: dict = {}

    def fail(self, what: str, count: int) -> None:
        self.failed += count
        self.errors.append(what)
        traceback.print_exc()

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


class Serving:
    """Evaluation passes, ``labelset predict`` passes through ``cli.main`` and
    closed-loop ``Model.predict`` calls (one caller; the next call starts when
    the previous returns), run in small units.

    Units are interleaved by time share, between training epochs and after
    training, so each serving metric samples the whole run rather than one
    stretch of it; the host's speed drifts over seconds.  Units run once the
    final models are in place feed the output checks.
    """

    def __init__(self, run: Run, eval_data, records, output: str):
        from labelset.data import Dataset

        self.run = run
        self.eval_chunks = [Dataset(eval_data.name, eval_data.samples[i:i + EVAL_CHUNK])
                            for i in range(0, len(eval_data), EVAL_CHUNK)]
        self.records = records
        self.output = output
        self.eval_model = self.serve_model = self.checkpoint = self.tokens = None
        self.final = False
        self.spent = dict.fromkeys(SERVING_OPS, 0.0)
        self.cursor = dict.fromkeys(SERVING_OPS, 0)
        # (begin, end, seconds, samples); latency units hold one time per call
        self.units = {name: [] for name in SERVING_OPS}
        self.final_eval: dict[int, dict] = {}   # chunk index -> report
        self.final_lines: list[str] | None = None
        self.final_preds: dict[int, set] = {}   # record index -> Model.predict on final model

    def use(self, eval_model, serve_model, checkpoint, final: bool) -> None:
        self.eval_model, self.serve_model, self.checkpoint = eval_model, serve_model, checkpoint
        self.tokens = [serve_model.token_vocab.encode(r.text) for r in self.records]
        self.final = final

    def _eval(self) -> None:
        from labelset import training

        index = self.cursor["eval"] % len(self.eval_chunks)
        chunk = self.eval_chunks[index]
        self.run.attempted += len(chunk)
        begin, spent = time.perf_counter(), self.run.host.spent
        report = training.evaluate(self.eval_model, chunk)
        end = time.perf_counter()
        self.units["eval"].append([begin, end, [end - begin - (self.run.host.spent - spent)],
                                   len(chunk)])
        if self.final:
            self.run.check("eval_repeats_identical", self.final_eval.get(index, report) == report)
            self.final_eval[index] = report

    def _cli(self) -> None:
        from labelset import cli

        argv = ["predict", "--checkpoint", self.checkpoint, "--input",
                self.run.plan["serve_path"], "--output", self.output]
        self.run.attempted += len(self.records)
        host = self.run.host
        begin, spent, host.in_cli = time.perf_counter(), host.spent, True
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            host.in_cli = False
        end = time.perf_counter()
        self.units["cli"].append([begin, end, [end - begin - (host.spent - spent)],
                                  len(self.records)])
        if code != 0:
            raise RuntimeError(f"labelset predict exited with {code}")
        if self.final:
            with open(self.output, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            self.run.check("cli_repeats_identical", self.final_lines in (None, lines))
            self.final_lines = lines

    def _latency(self) -> None:
        start = self.cursor["latency"] * LATENCY_CHUNK % len(self.tokens)
        model, clock = self.serve_model, time.perf_counter
        rows = self.tokens[start:start + LATENCY_CHUNK]
        self.run.attempted += len(rows)
        calls = []
        first = clock()
        for index, tokens in enumerate(rows, start):
            begin = clock()
            pred = model.predict(tokens)
            calls.append(clock() - begin)
            if self.final:
                self.final_preds[index] = pred
        self.units["latency"].append([first, clock(), calls, len(rows)])

    def unit(self, name: str) -> None:
        begin, attempted = time.perf_counter(), self.run.attempted
        try:
            getattr(self, f"_{name}")()
        except Exception as exc:  # the unit's operations count as failed; the run goes on
            self.run.fail(f"{name}: {exc!r}", self.run.attempted - attempted)
        self.cursor[name] += 1
        self.spent[name] += time.perf_counter() - begin
        self.run.host.sample()

    def _behind(self) -> str:
        ready = [n for n in SERVING_OPS
                 if n != "cli" or (self.checkpoint and os.path.exists(self.checkpoint))]
        return min(ready, key=lambda n: self.spent[n] / SERVING_SHARES[n])

    def catch_up(self, share: float) -> None:
        """Serve until serving holds ``share`` of the time since the start."""
        while sum(self.spent.values()) < share * self.run.elapsed():
            self.unit(self._behind())

    def finish(self, deadline: float) -> None:
        """On the final models: one unit of each operation (a whole pass of
        each with ``--fixed``), then units until the deadline."""
        if self.run.fixed:
            for _ in self.eval_chunks:
                self.unit("eval")
            self.unit("cli")
            for _ in range(0, len(self.records), LATENCY_CHUNK):
                self.unit("latency")
            return
        for name in SERVING_OPS:
            self.unit(name)
        while time.perf_counter() < deadline:
            self.unit(self._behind())

    def summary(self) -> dict:
        """Per operation: [seconds, samples, scale] per unit (per call for
        latency), where ``scale`` turns seconds into normalized seconds."""
        host = self.run.host
        out = {name: [[seconds, n, host.scale(begin, end)]
                      for begin, end, (seconds,), n in self.units[name]]
               for name in ("eval", "cli")}
        out["latency"] = []
        for begin, end, calls, _ in self.units["latency"]:
            scale = host.scale(begin, end)
            out["latency"] += [[seconds, 1, scale] for seconds in calls]
        out["records"] = len(self.records)
        return out


def train_config(plan: dict, out_dir: str, epochs: int):
    from labelset.model import RunConfig

    return RunConfig.from_dict({
        "train_path": plan["train_path"], "valid_path": plan["valid_path"],
        "test_path": plan["test_path"], "out_dir": out_dir,
        "epochs": epochs, "seed": plan["seed"], **plan["config"]})


class EpochMarks:
    """``log_stream`` for ``training.train``, which writes one line per epoch.

    Each line ends an epoch; serving units may then run before the next
    epoch starts, and their time is kept out of the epoch's."""

    def __init__(self, between, host: HostSpeed):
        self.between = between
        self.host = host
        self.epochs: list[tuple[float, float, float]] = []   # (begin, end, seconds)
        self.resume()

    def resume(self) -> None:
        self.resumed, self.spent = time.perf_counter(), self.host.spent

    def write(self, _text: str) -> None:
        end = time.perf_counter()
        self.epochs.append((self.resumed, end, end - self.resumed - (self.host.spent - self.spent)))
        self.host.sample(3)
        self.between()
        self.resume()


def train_phase(run: Run, corpus, model, serving: Serving | None):
    """Train for the plan's epoch count, then again from scratch for as many
    epochs as fit before the last ``FINAL_SHARE`` of the budget; serving
    units keep their share of the time between epochs.

    Every training uses the same seed, so each must reproduce the first one's
    losses and validation F1 epoch for epoch.  Returns the first training's
    model and its best checkpoint.
    """
    from labelset import training
    from labelset.model import build_model

    plan = run.plan
    epochs = plan["epochs"]
    train_deadline = plan["seconds"] * (1.0 - FINAL_SHARE)

    def between():
        if serving is not None and not run.fixed:
            serving.catch_up(SERVING_SHARE)

    epoch_spans, history, first, rep = [], None, None, 0
    per_epoch = 0.0
    while True:
        if rep:
            fit = int((train_deadline - run.elapsed()) // per_epoch)
            if run.fixed or serving is None or fit < 1:
                break
            epochs = min(fit, plan["epochs"])
        config = train_config(plan, os.path.join(plan["work_dir"], f"train{rep}"), epochs)
        if model is None:
            model = build_model(config, corpus)
        steps = math.ceil(len(corpus.train) / config.batch_size) * epochs
        run.attempted += steps
        marks = EpochMarks(between, run.host)
        run.host.sample(3)
        marks.resume()
        begin = marks.resumed
        try:
            result = training.train(model, corpus, out_dir=config.out_dir, log_stream=marks)
        except Exception as exc:
            run.fail(f"train: {exc!r}", steps)
            break
        per_epoch = (time.perf_counter() - begin) / epochs
        run.train_samples += len(corpus.train) * epochs
        epoch_spans += marks.epochs
        losses = [[r.train_loss, r.valid_f1] for r in result.history]
        run.check("train_losses_finite", all(math.isfinite(loss) for loss, _ in losses))
        if history is None:
            history, first = losses, (model, result.checkpoint_path)
        run.check("train_repeats_identical", losses == history[:len(losses)])
        model, rep = None, rep + 1
    run.out["train"] = {
        "epochs": [[seconds, len(corpus.train), run.host.scale(begin, end)]
                   for begin, end, seconds in epoch_spans],
        "train_size": len(corpus.train),
        "trainings": rep, "history": history,
        "valid_f1": history[-1][1] if history else None,
        "num_queries": first[0].config.num_queries if first else None,
        "num_labels": corpus.label_vocab.size}
    return first


def check_predictions(run: Run, serving: Serving) -> None:
    """Output gate: one line per input, in input order, labels from the
    checkpoint's vocabulary and equal to ``Model.predict`` on the same
    checkpoint; F1 recomputed from the file, overall and per evaluated chunk."""
    from labelset.data import records_to_dataset
    from labelset.metrics import MetricAccumulator

    model, records, lines = serving.serve_model, serving.records, serving.final_lines or []
    vocab = model.label_vocab
    gold, _ = records_to_dataset(records, vocab, model.token_vocab, "serve", drop_unseen=True)
    preds, bad = [], 0
    run.check("predict_line_count", len(lines) == len(records))
    for i, record in enumerate(records):
        pred = None
        try:
            row = json.loads(lines[i])
            names = row["predicted_labels"]
            if row["text"] == record.text and all(name in vocab for name in names):
                pred = {vocab.index[name] for name in names}
        except (IndexError, KeyError, TypeError, ValueError):
            pass
        expected = serving.final_preds.get(i)
        if expected is None:
            expected = model.predict(serving.tokens[i])
        if pred is None or pred != expected:
            bad += 1
        preds.append(pred or set())
    if bad:
        run.failed += bad
        run.errors.append(f"{bad} bad prediction lines")
    run.check("predict_lines_valid", bad == 0)

    def file_f1(lo, hi):
        acc = MetricAccumulator(vocab.size)
        for i in range(lo, hi):
            acc.accumulate(set(gold[i].labels), preds[i])
        return acc.finalize()["f1"]

    run.out["file_f1"] = file_f1(0, len(records))
    run.out["output_sha256"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if not run.plan["train_in_run"]:   # evaluation ran on the same labelled records
        for index, report in serving.final_eval.items():
            lo = index * EVAL_CHUNK
            run.check("eval_f1_equals_file_f1",
                      report["f1"] == file_f1(lo, min(lo + EVAL_CHUNK, len(records))))
        run.check("eval_covers_file", len(serving.final_eval) == len(serving.eval_chunks))


def setup(plan: dict, mode: str):
    """Everything before the first timed operation: corpus, label graph and
    model for training, or the checkpoint and labelled records for serving."""
    from labelset.data import read_jsonl, records_to_dataset

    if plan["train_in_run"] or mode == "prepare":
        from labelset.cli import load_splits
        from labelset.model import build_model

        config = train_config(plan, os.path.join(plan["work_dir"], "train0"), plan["epochs"])
        corpus = load_splits(config)
        return corpus, build_model(config, corpus), None
    from labelset.model import load_checkpoint

    model = load_checkpoint(plan["checkpoint"])
    records, _ = read_jsonl(plan["serve_path"])
    dataset, _ = records_to_dataset(records, model.label_vocab, model.token_vocab,
                                    "serve", drop_unseen=True)
    return dataset, model, records


def timed(run: Run, mode: str, data, model, records):
    """The timed work; returns the serving units for the output checks."""
    from labelset.data import read_jsonl
    from labelset.model import load_checkpoint

    plan = run.plan
    if mode == "prepare":
        _, checkpoint = train_phase(run, data, model, None)
        run.out["checkpoint"] = checkpoint
        return None
    output = os.path.join(plan["work_dir"], "predictions.jsonl")
    if plan["train_in_run"]:
        records, _ = read_jsonl(plan["serve_path"])
        serving = Serving(run, data.test, records, output)
        serving.use(model, model, os.path.join(plan["work_dir"], "train0", "best.npz"), False)
        trained, checkpoint = train_phase(run, data, model, serving)
        serving.use(trained, load_checkpoint(checkpoint), checkpoint, True)
    else:
        serving = Serving(run, data, records, output)
        serving.use(model, model, plan["checkpoint"], True)
    serving.finish(run.started + plan["seconds"])
    run.out["serving"] = serving.summary()
    run.out["eval_f1"] = [serving.final_eval[i]["f1"] for i in sorted(serving.final_eval)]
    return serving


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", choices=("probe", "prepare", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import labelset

    if not os.path.abspath(labelset.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported labelset from {labelset.__file__}, not from this checkout")
    tracer = None
    if args.trace:
        from tracing import Tracer, cross_check_matching

        tracer = Tracer()
        tracer.install()
    run = Run(plan, bool(args.fixed))
    data, model, records = setup(plan, args.mode)
    print("READY", flush=True)
    run.host.sample(5)
    setup_scale = run.host.scale(run.host.samples[0][0], run.host.samples[-1][0])
    if args.mode == "probe":
        print("SCALE", repr(setup_scale), flush=True)
        return 0

    if args.fixed:
        run.host.active = False
    else:
        run.host.sample_inside_units()
    run.started = time.perf_counter()
    serving = timed(run, args.mode, data, model, records)
    run.out["timed_seconds"] = run.elapsed()
    if tracer is not None:
        tracer.uninstall()
        run.out["trace"] = tracer.metrics(run.train_samples)
        run.out["matching_cross_check"] = cross_check_matching(tracer.captured)
        tracer.write_spans(os.path.join(plan["work_dir"], "spans.jsonl"))
    if serving is not None:
        check_predictions(run, serving)

    run.out.update({
        "setup_scale": setup_scale,
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
        "checks": run.checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    name = f"result-{args.mode}-trace{args.trace}.json"
    with open(os.path.join(plan["work_dir"], name), "w", encoding="utf-8") as fh:
        json.dump(run.out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
