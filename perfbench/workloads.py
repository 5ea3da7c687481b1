"""Workload table and metric tables of the benchmark.

Every workload trains (unless its checkpoint is trained before timing
starts), evaluates, labels a serving file through ``labelset predict`` and
calls ``Model.predict`` per record in a closed loop.  What differs is the
corpus, the run configuration and the serving file, and whether training
is part of the timed run, which decides where the run spends its time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

K64_SPEC = {"num_labels": 64, "vocab_size": 160, "extra_label_prob": 0.25}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict = field(default_factory=dict)     # SyntheticSpec overrides
    config: dict = field(default_factory=dict)   # RunConfig overrides
    epochs: int = 8            # fixed, so quality and loss history depend on the seed only
    serve_records: int = 300   # records in the serving file
    min_slots: int = 0         # slot-count floor over the resolved count, so m barely varies by seed
    train_in_run: bool = True  # False: the checkpoint is trained before timing starts


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train-k8",
            "SyntheticSpec and RunConfig defaults (K=8, m=8); dispatch-bound training "
            "that shows batching and per-node gains and leaves matching almost untouched"),
        Workload(
            "train-k64",
            "K=64, m=32 slots: hungarian and the O(m^2) overlap penalty take a large "
            "share, so matching and penalty costs that grow with K and m show",
            spec=K64_SPEC, epochs=3, serve_records=150, min_slots=32),
        Workload(
            "train-bce",
            "train-k8 corpus with the sigmoid head: no decoder, GCN, matching or penalty, "
            "so a change to those must show no change here",
            config={"head": "bce"}, epochs=4),
        Workload(
            "predict-k8",
            "serving a train-k8 checkpoint: forward-only encoder, decoder and GCN per "
            "record under no_grad, through the CLI and a closed Model.predict loop",
            serve_records=2000, train_in_run=False),
    )
}

TINY_SPEC = {"train_size": 24, "valid_size": 8, "test_size": 8}


def tiny(workload: Workload) -> Workload:
    """The same workload at smoke-test size: small splits, one epoch."""
    return replace(workload, spec={**workload.spec, **TINY_SPEC}, epochs=1,
                   serve_records=12)


# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_samples_per_s", "samples/s", "higher", 0.25),
    ("eval_samples_per_s", "samples/s", "higher", 0.25),
    ("predict_samples_per_s", "records/s", "higher", 0.25),
    ("predict_latency_ms.p50", "ms", "lower", 0.2),
    ("quality_f1", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

# Spans, in the order their metrics are listed.  Each gets ``.self_s`` and
# ``.calls``; the wrap point of each is in tracing.WRAP_POINTS.
SPAN_NAMES = (
    "tensor.backward", "encoder.encode", "nn.attention", "nn.feedforward",
    "decoder.decode", "decoder.bce_head", "matching.hungarian", "matching.set_loss",
    "diversity.bc_penalty", "graph.label_graph", "graph.gcn", "graph.query_projection",
    "training.train", "training.adam", "training.evaluate", "data.read_jsonl",
    "data.pad_batch", "model.load_checkpoint", "model.save_checkpoint", "cli.predict",
)
# nn.attention and nn.feedforward are also split by the enclosing span
ATTRIBUTED = ("nn.attention", "nn.feedforward")
ATTRIBUTION_PARENTS = {"encoder.encode": "encoder", "decoder.decode": "decoder"}

DERIVED = (
    ("tensor.tape_nodes_per_sample", "nodes/sample", "lower"),
    ("encoder.tape_nodes_per_call", "nodes/call", "lower"),
    ("decoder.tape_nodes_per_call", "nodes/call", "lower"),
    ("diversity.tape_nodes_per_call", "nodes/call", "lower"),
    ("matching.solves_per_match", "solves/call", "lower"),
    ("matching.slots", "count", "lower"),
    ("graph.gcn.calls_per_sample", "1/sample", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.self_s", "s", "lower"))
        out.append((f"{span}.calls", "count", "lower"))
        if span in ATTRIBUTED:
            for parent in ATTRIBUTION_PARENTS.values():
                out.append((f"{span}.{parent}.self_s", "s", "lower"))
                out.append((f"{span}.{parent}.calls", "count", "lower"))
    out.extend(DERIVED)
    return out
