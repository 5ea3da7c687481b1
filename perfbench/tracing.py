"""Spans around the public functions of each labelset module.

The tracer replaces functions and methods with wrappers that record a span
(name, parent span, start, end, tape length at entry and exit) and then call
the original.  Nothing in ``src/`` changes: class methods are wrapped on the
class, and module-level functions where they are looked up at call time.
Spans stay in memory until the run ends, then they are aggregated into the
per-layer metrics of ``workloads.per_layer_metrics``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

from workloads import ATTRIBUTED, ATTRIBUTION_PARENTS, SPAN_NAMES

# (module[:Class], attribute, span name)
WRAP_POINTS = (
    ("labelset.cli", "cmd_predict", "cli.predict"),
    ("labelset.data", "read_jsonl", "data.read_jsonl"),
    ("labelset.data", "pad_batch", "data.pad_batch"),
    ("labelset.model", "load_checkpoint", "model.load_checkpoint"),
    ("labelset.training", "save_checkpoint", "model.save_checkpoint"),
    ("labelset.training", "train", "training.train"),
    ("labelset.training", "evaluate", "training.evaluate"),
    ("labelset.training:Adam", "step", "training.adam"),
    ("labelset.training:Adam", "zero_grad", "training.adam"),
    ("labelset.tensor", "backward", "tensor.backward"),
    ("labelset.encoder:TransformerEncoder", "encode", "encoder.encode"),
    ("labelset.decoder:SetDecoder", "decode", "decoder.decode"),
    ("labelset.decoder:BceHead", "loss", "decoder.bce_head"),
    ("labelset.decoder:BceHead", "predict", "decoder.bce_head"),
    ("labelset.graph:LabelGraph", "__init__", "graph.label_graph"),
    ("labelset.graph:GcnStack", "__call__", "graph.gcn"),
    ("labelset.graph:QueryProjection", "__call__", "graph.query_projection"),
    ("labelset.nn:MultiHeadAttention", "__call__", "nn.attention"),
    ("labelset.nn:FeedForward", "__call__", "nn.feedforward"),
    ("labelset.matching", "hungarian", "matching.hungarian"),
    ("labelset.diversity", "set_loss", "matching.set_loss"),
    ("labelset.diversity", "bc_penalty", "diversity.bc_penalty"),
)
# counted, not spanned: assignment solves, and every sample the model labels
COUNTED = (
    ("labelset.matching", "linear_sum_assignment", "solves"),
    ("labelset.model:Model", "predict", "predictions"),
)

# hungarian inputs kept for the matching cross-check: every CAPTURE_STRIDE-th
# call, at most CAPTURE_LIMIT of them
CAPTURE_STRIDE = 7
CAPTURE_LIMIT = 64


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        from labelset import tensor

        self._tape = tensor.active_tape()
        self._clock = time.perf_counter
        self.spans: list = []   # (name, parent index, start, end, nodes in, nodes out)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.captured: list[tuple] = []   # (cost, slot_for_gold, total_cost)
        self._hungarian_calls = 0
        self._originals: list[tuple] = []
        self.started = self.stopped = 0.0

    def _span(self, name: str, fn):
        spans, stack, tape, clock = self.spans, self._stack, self._tape, self._clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            nodes = len(tape)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, nodes, len(tape))

        return traced

    def _capturing(self, fn):
        def hungarian(cost):
            result = fn(cost)
            self._hungarian_calls += 1
            if (self._hungarian_calls - 1) % CAPTURE_STRIDE == 0 \
                    and len(self.captured) < CAPTURE_LIMIT:
                self.captured.append((cost.copy(), result.slot_for_gold.copy(),
                                      result.total_cost))
            return result

        return hungarian

    def _counting(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for target, attr, name in WRAP_POINTS:
            owner = _resolve(target)
            fn = getattr(owner, attr)
            if name == "matching.hungarian":
                fn = self._capturing(fn)
            self._replace(owner, attr, self._span(name, fn))
        for target, attr, key in COUNTED:
            owner = _resolve(target)
            self._replace(owner, attr, self._counting(key, getattr(owner, attr)))
        self.started = self._clock()

    def uninstall(self) -> None:
        self.stopped = self._clock()
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, train_samples: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, given the number of
        training samples processed."""
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("metrics read while spans are still open")
        self_s: Counter = Counter()
        calls: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        context = [""] * len(self.spans)  # nearest encoder/decoder ancestor
        nodes_per_call: dict[str, list[int]] = {}
        backward_nodes = 0
        top_level = 0.0
        for index, (name, parent, start, end, nodes_in, nodes_out) in enumerate(self.spans):
            own = end - start - child_s[index]
            self_s[name] += own
            calls[name] += 1
            context[index] = ATTRIBUTION_PARENTS.get(name) or (context[parent] if parent >= 0 else "")
            if name in ATTRIBUTED and context[index]:
                self_s[f"{name}.{context[index]}"] += own
                calls[f"{name}.{context[index]}"] += 1
            if nodes_out > nodes_in:
                nodes_per_call.setdefault(name, []).append(nodes_out - nodes_in)
            if name == "tensor.backward":
                backward_nodes += nodes_in
            if parent < 0:
                top_level += end - start

        def mean_nodes(name):
            recorded = nodes_per_call.get(name, [])
            return sum(recorded) / len(recorded) if recorded else 0.0

        out = {}
        for span in SPAN_NAMES:
            keys = [span] + ([f"{span}.{p}" for p in ATTRIBUTION_PARENTS.values()]
                             if span in ATTRIBUTED else [])
            for key in keys:
                out[f"{key}.self_s"] = self_s[key]
                out[f"{key}.calls"] = calls[key]
        matches = calls["matching.hungarian"]
        out["tensor.tape_nodes_per_sample"] = backward_nodes / train_samples if train_samples else 0.0
        out["encoder.tape_nodes_per_call"] = mean_nodes("encoder.encode")
        out["decoder.tape_nodes_per_call"] = mean_nodes("decoder.decode")
        out["diversity.tape_nodes_per_call"] = mean_nodes("diversity.bc_penalty")
        out["matching.solves_per_match"] = self.counts["solves"] / matches if matches else 0.0
        out["matching.slots"] = (sum(c[0].shape[0] for c in self.captured) / len(self.captured)
                                 if self.captured else 0.0)
        samples = train_samples + self.counts["predictions"]
        out["graph.gcn.calls_per_sample"] = calls["graph.gcn"] / samples if samples else 0.0
        out["trace.coverage"] = top_level / (self.stopped - self.started)
        return out


def cross_check_matching(captured) -> dict:
    """Check captured hungarian results against independent solvers.

    Up to 8 slots the exhaustive oracle must pick the same permutation;
    above that, the total cost must equal one linear_sum_assignment solve
    within the matching module's tie band.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    from labelset import matching

    checked = mismatches = 0
    for cost, slot_for_gold, total in captured:
        if cost.shape[0] <= 8:
            oracle = matching.exhaustive_assignment(cost)
            agree = np.array_equal(oracle.slot_for_gold, slot_for_gold)
        else:
            rows, cols = linear_sum_assignment(cost)
            best = float(cost[rows, cols].sum())
            agree = abs(total - best) <= matching._tie_band(best)
        checked += 1
        mismatches += not agree
    return {"checked": checked, "mismatches": mismatches}
