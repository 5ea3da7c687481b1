"""Micro-averaged precision/recall/F1 and Hamming loss for label sets.

Counts pool over all samples and labels before any ratio is taken.  All
zero-denominator cases are pinned to 0 so degenerate evaluations (empty
predictions, empty golds) report numbers instead of crashing.
"""

from __future__ import annotations

import json

from .errors import ContractError

REPORT_KEYS = ("f1", "precision", "recall", "hamming_loss")


class MetricAccumulator:
    def __init__(self, num_labels: int):
        if num_labels < 1:
            raise ContractError("need at least one label")
        self.num_labels = num_labels
        self.tp = 0
        self.fp = 0
        self.fn = 0
        self.bit_errors = 0
        self.num_samples = 0

    def accumulate(self, gold, pred) -> None:
        gold, pred = set(gold), set(pred)
        for label in gold | pred:
            if not 0 <= label < self.num_labels:
                raise ContractError(f"label {label} out of range for K={self.num_labels}")
        self.tp += len(gold & pred)
        self.fp += len(pred - gold)
        self.fn += len(gold - pred)
        self.bit_errors += len(gold ^ pred)
        self.num_samples += 1

    def finalize(self) -> dict[str, float]:
        if self.num_samples < 1:
            raise ContractError("no samples accumulated")
        precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        hamming = self.bit_errors / (self.num_samples * self.num_labels)
        return {"f1": f1, "precision": precision, "recall": recall, "hamming_loss": hamming}


def render_table(rows: list[tuple[str, dict[str, float]]]) -> str:
    """Fixed-width comparison table; (+) marks higher-is-better columns."""
    header = f"{'model':<16} {'F1(+)':>8} {'P(+)':>8} {'R(+)':>8} {'HL(-)':>8}"
    lines = [header, "-" * len(header)]
    for name, report in rows:
        lines.append(
            f"{name:<16} {report['f1']:>8.4f} {report['precision']:>8.4f} "
            f"{report['recall']:>8.4f} {report['hamming_loss']:>8.4f}")
    return "\n".join(lines)


def report_json(report: dict[str, float]) -> str:
    return json.dumps({key: report[key] for key in REPORT_KEYS}, indent=2)
