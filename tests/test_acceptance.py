"""Acceptance gate: nine numbered criteria, each with its stated tolerance.

Each test is independent and self-contained; oracles here are written
directly against definitions, not against the library internals they check.
The conftest hook prints one pass/fail line per criterion at the end.
"""

import itertools
import time

import numpy as np
import pytest

import labelset.tensor as T
from helpers import bhattacharyya_pair, check_gradients, total_loss
from labelset.data import (
    RawRecord,
    Sample,
    Dataset,
    SyntheticSpec,
    build_corpus,
    synthetic_corpus,
)
from labelset.decoder import PredictionSet
from labelset.diversity import bc_penalty
from labelset.graph import (
    build_counts,
    conditional_probabilities,
    threshold_and_reweight,
)
from labelset.matching import exhaustive_assignment, hungarian, pad_gold, set_loss
from labelset.metrics import MetricAccumulator
from labelset.model import RunConfig, build_model
from labelset.training import evaluate, run_training


def random_prediction_set(rng, num_slots, num_classes) -> PredictionSet:
    logits = rng.normal(size=(num_slots, num_classes))
    expz = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return PredictionSet(T.Tensor(np.log(expz / expz.sum(axis=-1, keepdims=True))))


def test_criterion_1_matching_oracle():
    """Hungarian total equals the exhaustive-permutation minimum, exactly."""
    rng = np.random.default_rng(1)
    started = time.monotonic()
    for m in range(2, 8):
        for trial in range(1000):
            cost = rng.normal(size=(m, m))
            if trial % 5 == 0:
                cost = np.round(cost, 1)  # induce ties
            fast = hungarian(cost)
            slow = exhaustive_assignment(cost)
            assert fast.total_cost == slow.total_cost, (m, trial)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"matching oracle took {elapsed:.1f}s"


def test_criterion_2_permutation_invariance():
    """Reordering the gold labels never changes the matching loss."""
    rng = np.random.default_rng(2)
    for _ in range(500):
        num_classes = int(rng.integers(3, 9))  # K+1 classes, null last
        num_slots = int(rng.integers(2, 7))
        ps = random_prediction_set(rng, num_slots, num_classes)
        null_index = num_classes - 1
        width = int(rng.integers(0, min(num_slots, null_index) + 1))
        gold = list(rng.choice(null_index, size=width, replace=False))
        baseline = None
        for _ in range(3):
            order = [gold[i] for i in rng.permutation(len(gold))]
            padded = pad_gold(order, num_slots, null_index)
            with T.no_grad():
                value = float(set_loss(padded, ps).data)
            if baseline is None:
                baseline = value
            assert value == baseline  # exact, not approximate


def test_criterion_3_gradient_integrity():
    """Full-loss analytic gradients match central differences everywhere."""
    records = [
        RawRecord("alpha beta", ("red", "green")),
        RawRecord("gamma delta", ("blue",)),
        RawRecord("alpha gamma beta", ("red", "blue")),
        RawRecord("epsilon", ("yellow",)),
        RawRecord("beta epsilon", ("green", "yellow")),
    ]
    corpus = build_corpus(records, records[:2], [])
    config = RunConfig(
        d_model=8,
        encoder_layers=1,
        encoder_heads=2,
        decoder_layers=1,
        decoder_heads=2,
        gcn_layers=1,
        num_queries=3,
        max_len=8,
        bc_weight=0.1,
        seed=3,
    )
    model = build_model(config, corpus)
    assert corpus.label_vocab.size == 4
    sample = corpus.train.samples[0]
    null_index = corpus.label_vocab.size
    gold = pad_gold(sample.labels, 3, null_index)
    params = model.named_parameters()
    leaves = [params[name] for name in sorted(params)]

    def loss_fn(_leaves):
        memory = model.encode([sample.tokens])   # a batch of one
        ps = model.decoder.decode(model.queries(), memory)
        return total_loss(gold[None], ps, bc_weight=0.1).sum()

    started = time.monotonic()
    check_gradients(loss_fn, leaves, tol=1e-3, step=1e-5)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def oracle_graph(sample_sets, num_labels, tau, p_neighbor):
    """Brute-force count/conditional/reweight construction by definition."""
    counts = np.zeros((num_labels, num_labels))
    for labels in sample_sets:
        for i in labels:
            counts[i, i] += 1.0
            for j in labels:
                if i != j:
                    counts[i, j] += 1.0
    cond = np.zeros_like(counts)
    for i in range(num_labels):
        if counts[i, i] > 0:
            for j in range(num_labels):
                if i != j:
                    cond[i, j] = counts[i, j] / counts[i, i]
    adjacency = np.zeros_like(cond)
    for i in range(num_labels):
        kept = [(j, cond[i, j]) for j in range(num_labels)
                if i != j and cond[i, j] >= tau and cond[i, j] > 0.0]
        total = sum(w for _, w in kept)
        if total > 0.0:
            for j, w in kept:
                adjacency[i, j] = p_neighbor * w / total
            adjacency[i, i] = 1.0 - p_neighbor
        else:
            adjacency[i, i] = 1.0
    return counts, cond, adjacency


def test_criterion_4_graph_invariants():
    """Counting pipeline matches a brute-force oracle; rows sum to one."""
    from labelset.data import LabelVocabulary

    rng = np.random.default_rng(4)
    dummy_tokens = np.array([1, 2], dtype=np.intp)
    for trial in range(100):
        num_labels = int(rng.integers(2, 7))
        num_samples = int(rng.integers(1, 21))
        vocab = LabelVocabulary([f"l{i}" for i in range(num_labels)])
        sample_sets = []
        for _ in range(num_samples):
            width = int(rng.integers(1, num_labels + 1))
            chosen = sorted(rng.choice(num_labels, size=width, replace=False))
            sample_sets.append(tuple(int(c) for c in chosen))
        train = Dataset("train", [Sample(f"t{k}", dummy_tokens, labels)
                                  for k, labels in enumerate(sample_sets)])
        tau = float(rng.uniform(0.0, 0.9))
        p_neighbor = float(rng.uniform(0.05, 0.95))

        counts, occurrences = build_counts(train, vocab)
        cond = conditional_probabilities(counts, occurrences)
        reweighted = threshold_and_reweight(cond, tau, p_neighbor)

        want_counts, want_cond, want_adj = oracle_graph(
            sample_sets, num_labels, tau, p_neighbor)
        assert np.array_equal(counts, want_counts), trial
        assert np.array_equal(cond, want_cond), trial
        assert np.array_equal(reweighted, want_adj), trial
        assert np.all(np.abs(reweighted.sum(axis=1) - 1.0) <= 1e-12), trial


def test_criterion_5_bhattacharyya_bounds():
    """Penalty bounded by the pair count; bound attained iff rows identical."""
    rng = np.random.default_rng(5)
    for trial in range(1000):
        num_slots = int(rng.integers(2, 7))
        num_classes = int(rng.integers(2, 9))
        if trial % 10 == 0:  # identical rows: penalty == bound
            row = rng.dirichlet(np.ones(num_classes))
            probs = np.tile(row, (num_slots, 1))
        else:
            probs = np.stack([rng.dirichlet(np.ones(num_classes))
                              for _ in range(num_slots)])
        ps = PredictionSet(T.Tensor(np.log(probs)))
        with T.no_grad():
            penalty = float(bc_penalty(ps).data)
        bound = num_slots * (num_slots - 1) / 2.0
        assert 0.0 <= penalty <= bound + 1e-12, trial
        identical = all(np.array_equal(probs[0], probs[k])
                        for k in range(num_slots))
        if identical:
            assert abs(penalty - bound) <= 1e-9 * bound, trial
        else:
            assert penalty < bound - 1e-9, trial

    # pairwise coefficient vs direct arithmetic, 1e-12
    for _ in range(200):
        width = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(width))
        q = rng.dirichlet(np.ones(width))
        with T.no_grad():
            got = float(bhattacharyya_pair(T.Tensor(p), T.Tensor(q)).data)
        want = float(np.sum(np.sqrt(p * q)))
        assert abs(got - want) <= 1e-12


def naive_micro(pairs, num_labels):
    """Multi-hot reference: pool the confusion counts, then divide."""
    tp = fp = fn = bits = 0
    for gold, pred in pairs:
        gold_hot = np.zeros(num_labels, dtype=int)
        pred_hot = np.zeros(num_labels, dtype=int)
        gold_hot[list(gold)] = 1
        pred_hot[list(pred)] = 1
        tp += int(np.sum((gold_hot == 1) & (pred_hot == 1)))
        fp += int(np.sum((gold_hot == 0) & (pred_hot == 1)))
        fn += int(np.sum((gold_hot == 1) & (pred_hot == 0)))
        bits += int(np.sum(gold_hot != pred_hot))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"f1": f1, "precision": precision, "recall": recall,
            "hamming_loss": bits / (len(pairs) * num_labels)}


def test_criterion_6_metric_oracle():
    """Accumulator equals the naive multi-hot reference, exactly."""
    rng = np.random.default_rng(6)
    for trial in range(1000):
        num_labels = int(rng.integers(2, 9))
        num_samples = int(rng.integers(1, 12))
        pairs = []
        acc = MetricAccumulator(num_labels)
        for _ in range(num_samples):
            gold = {int(i) for i in
                    rng.choice(num_labels, size=rng.integers(0, num_labels + 1),
                               replace=False)}
            pred = {int(i) for i in
                    rng.choice(num_labels, size=rng.integers(0, num_labels + 1),
                               replace=False)}
            pairs.append((gold, pred))
            acc.accumulate(gold, pred)
        assert acc.finalize() == naive_micro(pairs, num_labels), trial

    # worked example: one dropped label, one spurious label, over K=3
    acc = MetricAccumulator(3)
    acc.accumulate({0, 1}, {0})
    acc.accumulate({2}, {1, 2})
    report = acc.finalize()
    assert report["precision"] == pytest.approx(2 / 3, abs=1e-15)
    assert report["recall"] == pytest.approx(2 / 3, abs=1e-15)
    assert report["f1"] == pytest.approx(2 / 3, abs=1e-15)
    assert report["hamming_loss"] == pytest.approx(1 / 3, abs=1e-15)


def test_criterion_7_end_to_end_capacity():
    """Default full model reaches 0.95 validation micro-F1 inside 30 epochs."""
    started = time.monotonic()
    corpus = synthetic_corpus(SyntheticSpec())  # K=8, 200/50/50, seeded rules
    config = RunConfig()  # library defaults: 30 epochs, full model
    _model, result = run_training(config, corpus)
    elapsed = time.monotonic() - started
    best = max(record.valid_f1 for record in result.history)
    assert best >= 0.95, f"best valid F1 {best:.4f}"
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"


def test_criterion_8_ablation_trend():
    """With heavy co-occurrence bias: overlap penalty lifts mean recall and
    graph-built queries lift mean F1, averaged over five seeds."""
    spec = SyntheticSpec(
        num_labels=10,
        vocab_size=60,
        train_size=100,
        valid_size=30,
        test_size=60,
        bias_pairs=((0, 1, 0.95), (2, 3, 0.9), (4, 5, 0.85), (6, 7, 0.8)),
        extra_label_prob=0.2,
        hidden_partners=True,
        seed=7,
    )
    corpus = synthetic_corpus(spec)
    base = dict(
        d_model=48,
        encoder_layers=2,
        encoder_heads=4,
        decoder_layers=2,
        decoder_heads=4,
        gcn_layers=1,
        gcn_activation="leaky_relu",
        p_neighbor=0.4,
        tau=0.7,
        epochs=8,
        batch_size=8,
        bc_weight=0.05,
    )
    variants = {
        "full": {},
        "wo/BC": {"use_bc": False},
        "wo/GCN": {"use_gcn": False},
    }
    reports: dict[str, list[dict[str, float]]] = {name: [] for name in variants}
    for seed in range(5):
        for name, overrides in variants.items():
            config = RunConfig(**{**base, **overrides, "seed": seed})
            model, _result = run_training(config, corpus)
            reports[name].append(evaluate(model, corpus.test))

    lines = ["per-seed test metrics:"]
    for name, reps in reports.items():
        for seed, rep in enumerate(reps):
            lines.append(f"  seed {seed} {name:7s} "
                         f"F1 {rep['f1']:.4f} R {rep['recall']:.4f}")
    means = {name: {key: float(np.mean([rep[key] for rep in reps]))
                    for key in ("f1", "recall")}
             for name, reps in reports.items()}
    for name, mean in means.items():
        lines.append(f"  mean   {name:7s} F1 {mean['f1']:.4f} R {mean['recall']:.4f}")
    detail = "\n".join(lines)
    print(detail)

    assert means["full"]["recall"] >= means["wo/BC"]["recall"], detail
    assert means["full"]["f1"] >= means["wo/GCN"]["f1"], detail


def test_criterion_9_determinism():
    """Identical seeded runs give bit-identical curves and final metrics."""
    spec = SyntheticSpec(
        num_labels=5,
        vocab_size=30,
        train_size=24,
        valid_size=8,
        test_size=8,
        bias_pairs=((0, 1, 0.8),),
        seed=9,
    )
    corpus = synthetic_corpus(spec)
    config = RunConfig(
        d_model=16,
        encoder_layers=1,
        encoder_heads=2,
        decoder_layers=1,
        decoder_heads=2,
        gcn_layers=1,
        max_len=32,
        epochs=3,
        batch_size=4,
        seed=0,
    )
    curves = []
    finals = []
    for _ in range(2):
        model, result = run_training(config, corpus)
        curves.append([(r.epoch, r.train_loss, r.valid_f1, r.valid_hamming)
                       for r in result.history])
        finals.append(evaluate(model, corpus.test))
    assert curves[0] == curves[1]  # bit-identical floats
    assert finals[0] == finals[1]
