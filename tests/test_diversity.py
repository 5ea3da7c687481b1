"""Overlap coefficient, pairwise penalty, and combined objective."""

import numpy as np
import numpy.testing as npt
import pytest

from labelset import diversity, matching, tensor as T
from labelset.decoder import PredictionSet
from labelset.errors import ContractError

from helpers import check_gradients


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def normalized_rows(rng, m, classes):
    raw = rng.random((m, classes)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestPairCoefficient:
    def test_identical_distributions_give_one(self):
        value = float(diversity.bhattacharyya_pair([0.3, 0.7], [0.3, 0.7]).data)
        npt.assert_allclose(value, 1.0, rtol=0, atol=1e-12)

    def test_disjoint_support_gives_exact_zero(self):
        value = float(diversity.bhattacharyya_pair([1.0, 0.0], [0.0, 1.0]).data)
        assert value == 0.0

    def test_worked_example(self):
        value = float(diversity.bhattacharyya_pair([0.5, 0.5], [0.8, 0.2]).data)
        direct = np.sqrt(0.5 * 0.8) + np.sqrt(0.5 * 0.2)
        npt.assert_allclose(value, direct, rtol=0, atol=1e-12)
        npt.assert_allclose(value, 0.94868, atol=5e-6)

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = normalized_rows(rng, 2, 6)
            value = float(diversity.bhattacharyya_pair(p, q).data)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ContractError):
            diversity.bhattacharyya_pair([0.5, 0.5], [0.5, 0.3, 0.2])
        with pytest.raises(ContractError):
            diversity.bhattacharyya_pair([0.4, 0.4], [0.5, 0.5])
        with pytest.raises(ContractError):
            diversity.bhattacharyya_pair([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ContractError):
            diversity.bhattacharyya_pair([[0.5, 0.5]], [[0.5, 0.5]])


class TestPenalty:
    def test_single_row_has_no_pairs(self):
        ps = PredictionSet(T.Tensor(np.array([[0.5, 0.5]])))
        assert float(diversity.bc_penalty(ps).data) == 0.0

    def test_identical_rows_hit_the_bound(self):
        row = np.array([0.25, 0.25, 0.5])
        ps = PredictionSet(T.Tensor(np.tile(row, (3, 1))))
        npt.assert_allclose(float(diversity.bc_penalty(ps).data), 3.0, rtol=0, atol=1e-12)

    def test_two_rows_equal_pair_value(self):
        ps = PredictionSet(T.Tensor(np.array([[0.5, 0.5], [0.8, 0.2]])))
        pair = float(diversity.bhattacharyya_pair([0.5, 0.5], [0.8, 0.2]).data)
        npt.assert_allclose(float(diversity.bc_penalty(ps).data), pair, rtol=0, atol=1e-15)

    def test_bounds_and_pair_sum_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            rows = normalized_rows(rng, m, 5)
            ps = PredictionSet(T.Tensor(rows))
            value = float(diversity.bc_penalty(ps).data)
            limit = m * (m - 1) / 2
            assert 0.0 <= value <= limit + 1e-12
            direct = sum(np.sqrt(rows[i] * rows[j]).sum()
                         for i in range(m) for j in range(i + 1, m))
            npt.assert_allclose(value, direct, rtol=0, atol=1e-12)

    def test_exact_symmetry_under_row_permutation(self):
        rng = np.random.default_rng(2)
        rows = normalized_rows(rng, 5, 6)
        base = float(diversity.bc_penalty(PredictionSet(T.Tensor(rows))).data)
        for _ in range(10):
            perm = rng.permutation(5)
            shuffled = float(diversity.bc_penalty(PredictionSet(T.Tensor(rows[perm]))).data)
            assert shuffled == base

    def test_gradient_separates_nearly_identical_rows(self):
        # two near-identical softmax rows: one descent step lowers overlap
        logits = T.Tensor(np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5 + 1e-4]]),
                          requires_grad=True)
        ps = PredictionSet(T.softmax(logits))
        before = float(diversity.bc_penalty(ps).data)
        T.backward(diversity.bc_penalty(PredictionSet(T.softmax(logits))))
        logits.data -= 0.5 * logits.grad
        T.reset_tape()
        after = float(diversity.bc_penalty(PredictionSet(T.softmax(logits))).data)
        assert after < before

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        logits = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_gradients(lambda ls: diversity.bc_penalty(PredictionSet(T.softmax(ls[0]))), [logits])


def pair_sum(rows):
    """Sum of sqrt(p_i * p_j) over the unordered slot pairs of (..., m, C) rows."""
    left, right = np.triu_indices(rows.shape[-2], k=1)
    return np.sqrt(rows[..., left, :] * rows[..., right, :]).sum(axis=(-2, -1))


def softmax_rows(rng, shape, scale):
    logits = rng.standard_normal(shape) * scale
    raw = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return raw / raw.sum(axis=-1, keepdims=True)


class TestFactoredPenalty:
    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_agrees_with_pair_sum_oracle_on_batches(self, m):
        rng = np.random.default_rng(6)
        for classes in (2, 9, 33, 65):
            for scale in (0.1, 1.0, 4.0):
                rows = softmax_rows(rng, (3, m, classes), scale)
                value = diversity.bc_penalty(PredictionSet(T.Tensor(rows))).data
                assert value.shape == (3,)
                npt.assert_allclose(value, pair_sum(rows), rtol=1e-12, atol=0)

    def test_near_disjoint_rows_stay_nonnegative_and_tiny(self):
        # each slot puts all but 1e-30 of its mass on a class of its own
        for m, classes in ((2, 2), (4, 6), (8, 9), (32, 65)):
            rows = np.full((m, classes), 1e-30)
            rows[np.arange(m), np.arange(m)] = 1.0 - (classes - 1) * 1e-30
            value = float(diversity.bc_penalty(PredictionSet(T.Tensor(rows))).data)
            assert 0.0 <= value < 1e-12

    def test_classes_one_slot_supports_add_exact_zero(self):
        # each slot splits its mass between two classes of its own and puts
        # 1e-300 on the rest; the cross terms on a slot's own classes are
        # below rounding, and subtracting the rounded squares (not the
        # probabilities) makes those classes add exactly 0, so only the
        # classes every slot gives 1e-300 remain
        rng = np.random.default_rng(10)
        for m in (2, 5, 16):
            rows = np.full((m, 2 * m + 1), 1e-300)
            split = rng.random(m)
            rows[np.arange(m), 2 * np.arange(m)] = split
            rows[np.arange(m), 2 * np.arange(m) + 1] = 1.0 - split
            value = float(diversity.bc_penalty(PredictionSet(T.Tensor(rows))).data)
            assert 0.0 < value < 1e-290

    def test_gradient_check_on_a_batch(self):
        rng = np.random.default_rng(7)
        logits = T.Tensor(rng.standard_normal((2, 5, 7)), requires_grad=True)
        probe = T.Tensor(np.array([0.7, -1.3]))
        check_gradients(
            lambda ls: (diversity.bc_penalty(PredictionSet(T.softmax(ls[0]))) * probe).sum(),
            [logits])

    def test_gradient_in_p_equals_the_pair_sum_gradient(self):
        # through softmax a constant shift of dP/dp cancels, so compare the
        # gradient in p itself with the pair-by-pair derivative
        rng = np.random.default_rng(11)
        rows = softmax_rows(rng, (2, 16, 9), 1.0)
        probe = np.array([0.7, -1.3])
        leaf = T.Tensor(rows, requires_grad=True)
        T.backward((diversity.bc_penalty(PredictionSet(leaf)) * T.Tensor(probe)).sum())
        left, right = np.triu_indices(16, k=1)
        roots = np.sqrt(rows)
        want = np.zeros_like(rows)
        np.add.at(want, (Ellipsis, left, slice(None)), roots[..., right, :] / (2 * roots[..., left, :]))
        np.add.at(want, (Ellipsis, right, slice(None)), roots[..., left, :] / (2 * roots[..., right, :]))
        npt.assert_allclose(leaf.grad, probe[:, None, None] * want, rtol=1e-12, atol=0)

    def test_same_bits_under_any_slot_permutation_at_m32(self):
        rng = np.random.default_rng(8)
        rows = softmax_rows(rng, (4, 32, 65), 2.0)
        base = diversity.bc_penalty(PredictionSet(T.Tensor(rows))).data
        for _ in range(10):
            shuffled = np.stack([sample[rng.permutation(32)] for sample in rows])
            value = diversity.bc_penalty(PredictionSet(T.Tensor(shuffled))).data
            assert value.tobytes() == base.tobytes()

    def test_batch_of_k64_records_one_tape_node(self):
        # tripwire: the pair-by-pair form recorded 5 nodes (two gathers,
        # their product, the square root and the sum)
        rng = np.random.default_rng(9)
        leaf = T.Tensor(softmax_rows(rng, (8, 32, 65), 1.0), requires_grad=True)
        ps = PredictionSet(leaf)
        before = len(T.active_tape())
        diversity.bc_penalty(ps)
        assert len(T.active_tape()) - before == 1


class TestTotalLoss:
    def test_zero_weight_is_identical_to_set_loss(self):
        rng = np.random.default_rng(4)
        rows = normalized_rows(rng, 3, 5)
        gold = matching.pad_gold([0, 2], 3, null_index=4)
        ps = PredictionSet(T.Tensor(rows))
        combined = float(diversity.total_loss(gold, ps, bc_weight=0.0).data)
        alone = float(matching.set_loss(gold, ps).data)
        assert combined == alone

    def test_worked_combined_value(self):
        # assignment part ln 8 plus one overlap pair, weight 1
        ps = PredictionSet(T.Tensor(np.array([
            [0.10, 0.50, 0.40],
            [0.45, 0.30, 0.25],
        ])))
        gold = np.array([1, 2])
        value = float(diversity.total_loss(gold, ps, bc_weight=1.0).data)
        pair = float(diversity.bhattacharyya_pair(ps.distributions.data[0],
                                                  ps.distributions.data[1]).data)
        npt.assert_allclose(value, np.log(8.0) + pair, rtol=0, atol=1e-12)

    def test_negative_weight_rejected(self):
        ps = PredictionSet(T.Tensor(np.array([[0.5, 0.5]])))
        with pytest.raises(ContractError):
            diversity.total_loss(np.array([1]), ps, bc_weight=-0.5)

    def test_gradient_check_full_objective(self):
        rng = np.random.default_rng(5)
        logits = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gold = np.array([1, 3, 3])

        def build(ls):
            ps = PredictionSet(T.softmax(ls[0]))
            return diversity.total_loss(gold, ps, bc_weight=0.3)

        check_gradients(build, [logits])
