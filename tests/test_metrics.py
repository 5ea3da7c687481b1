"""Metric accumulation against a naive multi-hot reference."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelset import metrics
from labelset.errors import ContractError


# --- independent oracle: dense multi-hot arrays, no set arithmetic --------

def naive_reference(pairs, k):
    n = len(pairs)
    gold = np.zeros((n, k), dtype=int)
    pred = np.zeros((n, k), dtype=int)
    for row, (g, p) in enumerate(pairs):
        for label in g:
            gold[row, label] = 1
        for label in p:
            pred[row, label] = 1
    tp = int(((gold == 1) & (pred == 1)).sum())
    fp = int(((gold == 0) & (pred == 1)).sum())
    fn = int(((gold == 1) & (pred == 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"f1": f1, "precision": precision, "recall": recall,
            "hamming_loss": float((gold != pred).mean())}


def accumulate_all(pairs, k):
    acc = metrics.MetricAccumulator(k)
    for g, p in pairs:
        acc.accumulate(g, p)
    return acc


def random_pairs(rng, k, n):
    pairs = []
    for _ in range(n):
        gold = {int(x) for x in rng.choice(k, size=rng.integers(0, k + 1), replace=False)}
        pred = {int(x) for x in rng.choice(k, size=rng.integers(0, k + 1), replace=False)}
        pairs.append((gold, pred))
    return pairs


class TestWorkedExamples:
    def test_two_sample_example(self):
        pairs = [({0, 1}, {0}), ({2}, {1, 2})]
        acc = accumulate_all(pairs, 3)
        assert (acc.tp, acc.fp, acc.fn) == (2, 1, 1)
        report = acc.finalize()
        npt.assert_allclose(report["precision"], 2 / 3)
        npt.assert_allclose(report["recall"], 2 / 3)
        npt.assert_allclose(report["f1"], 2 / 3)
        npt.assert_allclose(report["hamming_loss"], 1 / 3)

    def test_perfect_predictions(self):
        acc = accumulate_all([({0, 2}, {0, 2}), ({1}, {1})], 3)
        report = acc.finalize()
        assert acc.fp == 0 and acc.fn == 0
        assert report["f1"] == 1.0 and report["hamming_loss"] == 0.0

    def test_missed_label(self):
        acc = accumulate_all([({0}, set())], 2)
        assert acc.fn == 1

    def test_all_empty_predictions_use_zero_conventions(self):
        acc = accumulate_all([({0}, set()), ({1}, set())], 2)
        report = acc.finalize()
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0
        assert report["f1"] == 0.0


class TestValidation:
    def test_out_of_range_label(self):
        acc = metrics.MetricAccumulator(3)
        with pytest.raises(ContractError):
            acc.accumulate({0, 3}, set())

    def test_finalize_requires_samples(self):
        with pytest.raises(ContractError):
            metrics.MetricAccumulator(3).finalize()


class TestOracleEquivalence:
    def test_random_cases_match_reference_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            pairs = random_pairs(rng, k, int(rng.integers(1, 20)))
            assert accumulate_all(pairs, k).finalize() == naive_reference(pairs, k)

    def test_invariant_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pairs = random_pairs(rng, 6, 10)
            report = accumulate_all(pairs, 6).finalize()
            assert 0.0 <= report["hamming_loss"] <= 1.0
            assert 0.0 <= report["f1"] <= 1.0
            assert report["f1"] <= max(report["precision"], report["recall"]) + 1e-15


class TestRendering:
    def test_report_keys_exact(self):
        acc = accumulate_all([({0}, {0})], 2)
        report = acc.finalize()
        assert tuple(report.keys()) == metrics.REPORT_KEYS
        parsed = json.loads(metrics.report_json(report))
        assert set(parsed) == set(metrics.REPORT_KEYS)

    def test_table_layout(self):
        report = accumulate_all([({0}, {0})], 2).finalize()
        table = metrics.render_table([("full", report), ("wo/GCN", report)])
        lines = table.splitlines()
        assert "F1(+)" in lines[0] and "HL(-)" in lines[0]
        assert lines[2].startswith("full")
        assert len(lines) == 4
