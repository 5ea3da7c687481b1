"""Label graph construction against a brute-force counting oracle."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelset import graph, tensor as T
from labelset.data import Dataset, LabelVocabulary, Sample
from labelset.errors import ConfigError, ContractError, GraphConstructionError

from helpers import load_matrix


# --- independent oracle: naive per-sample loops, no vectorization ---------

def oracle_counts(label_sets, k):
    counts = np.zeros((k, k), dtype=np.int64)
    occ = np.zeros(k, dtype=np.int64)
    for labels in label_sets:
        for i in labels:
            occ[i] += 1
        for i in labels:
            for j in labels:
                if i != j:
                    counts[i, j] += 1
    for i in range(k):
        counts[i, i] = occ[i]
    return counts, occ


def oracle_cond(counts, occ):
    k = counts.shape[0]
    cond = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j and occ[i] > 0:
                cond[i, j] = counts[i, j] / occ[i]
    return cond


def oracle_reweight(cond, tau, p_neighbor):
    k = cond.shape[0]
    out = np.zeros((k, k))
    for i in range(k):
        kept = {j: cond[i, j] for j in range(k) if j != i and cond[i, j] >= tau and cond[i, j] > 0.0}
        total = sum(kept.values())
        if total > 0.0:
            for j, w in kept.items():
                out[i, j] = p_neighbor * w / total
            out[i, i] = 1.0 - p_neighbor
        else:
            out[i, i] = 1.0
    return out


def dataset_from_sets(label_sets, k):
    vocab = LabelVocabulary([f"l{i}" for i in range(k)])
    samples = [Sample(text="", tokens=np.array([1, 2]), labels=tuple(sorted(s)))
               for s in label_sets]
    return Dataset("train", samples), vocab


def random_label_sets(rng, k, n):
    sets = []
    for _ in range(n):
        size = int(rng.integers(1, k + 1))
        sets.append(tuple(sorted(rng.choice(k, size=size, replace=False).tolist())))
    return sets


class TestCounts:
    def test_worked_example(self):
        ds, vocab = dataset_from_sets([(0, 1), (0, 2), (0,)], k=3)
        counts, occ = graph.build_counts(ds, vocab)
        assert counts[0, 1] == 1 and counts[0, 2] == 1 and counts[1, 2] == 0
        assert occ[0] == 3 and occ[1] == 1
        assert counts[0, 0] == 3

    def test_single_label_samples_have_no_edges(self):
        ds, vocab = dataset_from_sets([(0,), (1,), (2,)], k=3)
        counts, _ = graph.build_counts(ds, vocab)
        off = counts.copy()
        np.fill_diagonal(off, 0)
        assert (off == 0).all()

    def test_repeated_samples_accumulate(self):
        ds, vocab = dataset_from_sets([(0, 1), (0, 1)], k=2)
        counts, _ = graph.build_counts(ds, vocab)
        assert counts[0, 1] == 2

    def test_empty_training_set_rejected(self):
        ds, vocab = dataset_from_sets([], k=2)
        with pytest.raises(GraphConstructionError):
            graph.build_counts(ds, vocab)

    def test_out_of_range_label_rejected(self):
        ds, vocab = dataset_from_sets([(0, 5)], k=3)
        with pytest.raises(ContractError):
            graph.build_counts(ds, vocab)


class TestConditional:
    def test_worked_example(self):
        ds, vocab = dataset_from_sets([(0, 1), (0, 2), (0,)], k=3)
        cond = graph.conditional_probabilities(*graph.build_counts(ds, vocab))
        npt.assert_allclose(cond[0, 1], 1 / 3)
        npt.assert_allclose(cond[1, 0], 1.0)
        assert cond[1, 2] == 0.0

    def test_absent_label_row_is_zero(self):
        ds, vocab = dataset_from_sets([(0, 1)], k=3)
        cond = graph.conditional_probabilities(*graph.build_counts(ds, vocab))
        assert (cond[2] == 0.0).all()

    def test_diagonal_zero(self):
        ds, vocab = dataset_from_sets([(0, 1), (1, 2)], k=3)
        cond = graph.conditional_probabilities(*graph.build_counts(ds, vocab))
        assert (np.diag(cond) == 0.0).all()


class TestReweight:
    def test_worked_two_neighbor_example(self):
        cond = np.array([[0.0, 0.2, 0.6],
                         [0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])
        out = graph.threshold_and_reweight(cond, tau=0.1, p_neighbor=0.5)
        npt.assert_allclose(out[0], [0.5, 0.125, 0.375])

    def test_single_neighbor_example(self):
        cond = np.array([[0.0, 0.9], [0.0, 0.0]])
        out = graph.threshold_and_reweight(cond, tau=0.1, p_neighbor=0.2)
        npt.assert_allclose(out[0], [0.8, 0.2])
        npt.assert_allclose(out[1], [0.0, 1.0])  # isolated row

    def test_all_below_threshold_gives_self_loop(self):
        cond = np.full((3, 3), 0.05)
        np.fill_diagonal(cond, 0.0)
        out = graph.threshold_and_reweight(cond, tau=0.1, p_neighbor=0.25)
        npt.assert_array_equal(out, np.eye(3))

    def test_equal_weights_spread_uniformly(self):
        cond = np.array([[0.0, 0.3, 0.3, 0.3],
                         [0.0] * 4, [0.0] * 4, [0.0] * 4])
        out = graph.threshold_and_reweight(cond, tau=0.1, p_neighbor=0.3)
        npt.assert_allclose(out[0, 1:], 0.1)

    def test_rows_sum_to_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sets = random_label_sets(rng, 5, 12)
            counts, occ = oracle_counts(sets, 5)
            cond = oracle_cond(counts, occ)
            out = graph.threshold_and_reweight(cond, tau=0.2, p_neighbor=0.25)
            npt.assert_allclose(out.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)

    def test_raising_tau_only_removes_edges(self):
        rng = np.random.default_rng(1)
        sets = random_label_sets(rng, 6, 20)
        counts, occ = oracle_counts(sets, 6)
        cond = oracle_cond(counts, occ)
        previous = None
        for tau in (0.0, 0.1, 0.3, 0.6, 1.0):
            adjacency = np.where(cond >= tau, cond, 0.0)
            np.fill_diagonal(adjacency, 0.0)
            edges = int((adjacency > 0).sum())
            if previous is not None:
                assert edges <= previous
            previous = edges

    def test_parameter_validation(self):
        cond = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            graph.threshold_and_reweight(cond, tau=-0.1, p_neighbor=0.5)
        with pytest.raises(ConfigError):
            graph.threshold_and_reweight(cond, tau=0.5, p_neighbor=1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        sets = random_label_sets(rng, k, int(rng.integers(1, 21)))
        ds, vocab = dataset_from_sets(sets, k)
        built = graph.LabelGraph(ds, vocab, tau=0.1, p_neighbor=0.25)
        counts, occ = oracle_counts(sets, k)
        npt.assert_array_equal(built.counts, counts)
        npt.assert_array_equal(built.occurrences, occ)
        npt.assert_array_equal(built.cond_prob, oracle_cond(counts, occ))
        npt.assert_array_equal(built.reweighted, oracle_reweight(built.cond_prob, 0.1, 0.25))


class TestPropagation:
    def test_identity_graph_is_fixed_point(self):
        npt.assert_allclose(graph.normalized_propagation(np.eye(4)), np.eye(4), atol=1e-15)

    def test_two_node_worked_example(self):
        reweighted = np.array([[0.5, 0.5], [0.5, 0.5]])
        npt.assert_allclose(graph.normalized_propagation(reweighted),
                            [[0.75, 0.25], [0.25, 0.75]])

    def test_isolated_row_stays_unit(self):
        reweighted = np.array([[1.0, 0.0, 0.0],
                               [0.0, 0.75, 0.25],
                               [0.0, 0.25, 0.75]])
        result = graph.normalized_propagation(reweighted)
        npt.assert_allclose(result[0], [1.0, 0.0, 0.0])
        assert (result >= 0.0).all()


class TestGcn:
    def test_identity_propagation_identity_weights(self):
        stack = graph.GcnStack(np.random.default_rng(0), np.eye(3), num_layers=1, width=4)
        stack.node_features.data = np.abs(stack.node_features.data)  # relu-transparent
        stack.layer_weights[0].data = np.eye(4)
        out = stack()
        npt.assert_array_equal(out.data, stack.node_features.data)

    def test_matches_hand_matmul(self):
        rng = np.random.default_rng(1)
        spread = graph.normalized_propagation(np.array([[0.5, 0.5], [0.5, 0.5]]))
        stack = graph.GcnStack(rng, spread, num_layers=2, width=3)
        spread = spread.astype(stack.node_features.data.dtype)
        expected = stack.node_features.data
        for w in stack.layer_weights:
            expected = np.maximum(spread @ expected @ w.data, 0.0)
        npt.assert_allclose(stack().data, expected, atol=1e-15)

    def test_leaky_relu_variant(self):
        stack = graph.GcnStack(np.random.default_rng(2), np.eye(2), num_layers=1,
                               width=2, activation="leaky_relu")
        stack.node_features.data = np.array([[-1.0, 1.0], [2.0, -2.0]])
        stack.layer_weights[0].data = np.eye(2)
        npt.assert_allclose(stack().data, [[-0.01, 1.0], [2.0, -0.02]])

    def test_projection_shape_many_labels(self):
        # 54 labels mixed down to 10 queries of width 64
        rng = np.random.default_rng(3)
        stack = graph.GcnStack(rng, np.eye(54), num_layers=2, width=64)
        queries = graph.QueryProjection(rng, num_queries=10, num_labels=54)(stack())
        assert queries.shape == (10, 64)

    def test_gradients_flow_to_features_weights_projection(self, monkeypatch):
        rng = np.random.default_rng(4)
        stack = graph.GcnStack(rng, np.eye(3), num_layers=1, width=2)
        proj = graph.QueryProjection(rng, num_queries=2, num_labels=3)
        receivers = []
        accumulate = T._accumulate

        def recording(t, delta):
            receivers.append(t)
            accumulate(t, delta)

        monkeypatch.setattr(T, "_accumulate", recording)
        T.reset_tape()
        T.backward(proj(stack()).sum())
        assert np.abs(stack.node_features.grad).sum() > 0
        assert np.abs(proj.weight.grad).sum() > 0
        # the constant propagation matrix gets no gradient product
        assert not any(t.data is stack.propagation for t in receivers)
        T.reset_tape()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            graph.GcnStack(np.random.default_rng(0), np.eye(2), num_layers=0, width=2)
        with pytest.raises(ConfigError):
            graph.GcnStack(np.random.default_rng(0), np.eye(2), num_layers=1, width=2,
                           activation="tanh")


class TestDump:
    def test_round_trip(self, tmp_path):
        matrix = np.random.default_rng(5).random((4, 4))
        path = tmp_path / "m.txt"
        graph.dump_matrix(path, matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == "4"
        assert len(lines) == 5
        npt.assert_array_equal(load_matrix(path), matrix)

    def test_graph_summary_fields(self):
        ds, vocab = dataset_from_sets([(0, 1), (0, 1), (2,)], k=3)
        built = graph.LabelGraph(ds, vocab, tau=0.1, p_neighbor=0.25)
        assert built.edge_count == 2  # 0->1 and 1->0
        assert built.isolated_labels == [2]
