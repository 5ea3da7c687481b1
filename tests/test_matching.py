"""Assignment solver vs exhaustive oracle, cost matrix contracts, set loss."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import linear_sum_assignment

from labelset import matching, tensor as T
from labelset.decoder import PredictionSet
from labelset.errors import ContractError, NumericDomainError

from helpers import check_gradients, run_python


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def normalized_rows(rng, m, classes):
    raw = rng.random((m, classes)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestPadGold:
    def test_sorts_and_pads(self):
        npt.assert_array_equal(matching.pad_gold([3, 1], 4, null_index=5), [1, 3, 5, 5])

    def test_empty_gold_all_null(self):
        npt.assert_array_equal(matching.pad_gold([], 3, null_index=2), [2, 2, 2])

    def test_too_many_labels_rejected(self):
        with pytest.raises(ContractError):
            matching.pad_gold([0, 1, 2], 2, null_index=9)

    def test_duplicates_rejected(self):
        with pytest.raises(ContractError):
            matching.pad_gold([1, 1], 3, null_index=9)

    def test_range_checked(self):
        with pytest.raises(ContractError):
            matching.pad_gold([5], 2, null_index=5)


class TestMatchCost:
    def test_all_null_gold_is_zero_matrix(self):
        probs = normalized_rows(np.random.default_rng(0), 3, 5)
        cost = matching.match_cost(np.array([4, 4, 4]), np.log(probs))
        npt.assert_array_equal(cost, np.zeros((3, 3)))

    def test_real_entry_is_negated_probability(self):
        probs = np.array([[0.6, 0.2, 0.1, 0.1], [0.1, 0.5, 0.3, 0.1]])
        cost = matching.match_cost(np.array([0, 2]), np.log(probs))
        npt.assert_allclose(cost[0], [-0.6, -0.1])
        npt.assert_allclose(cost[1], [-0.1, -0.3])

    def test_costs_bounded_by_probability_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            probs = normalized_rows(rng, 4, 6)
            gold = matching.pad_gold(rng.choice(5, size=2, replace=False), 4, null_index=5)
            cost = matching.match_cost(gold, np.log(probs))
            assert (cost <= 0).all() and (cost >= -1).all()

    def test_log_prob_mode(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        cost = matching.match_cost(np.array([0, 1]), np.log(probs), cost_mode="log_prob")
        npt.assert_allclose(cost[0], [-np.log(0.5), -np.log(0.25)])
        npt.assert_array_equal(cost[1], np.zeros(2))  # gold 1 is the null class here

    def test_padded_rows_ignore_other_columns(self):
        rng = np.random.default_rng(2)
        probs = normalized_rows(rng, 3, 4)
        gold = np.array([1, 3, 3])  # null index 3
        base = matching.match_cost(gold, np.log(probs))
        tweaked = probs.copy()
        tweaked[:, [0, 2]] = normalized_rows(rng, 3, 4)[:, [0, 2]]  # labels absent from gold
        after = matching.match_cost(gold, np.log(tweaked))
        npt.assert_array_equal(base[1:], after[1:])

    def test_invalid_mode_and_range(self):
        probs = normalized_rows(np.random.default_rng(3), 2, 3)
        with pytest.raises(ContractError):
            matching.match_cost(np.array([0, 1]), np.log(probs), cost_mode="squared")
        with pytest.raises(ContractError):
            matching.match_cost(np.array([0, 7]), np.log(probs))


class TestHungarian:
    def test_identity_on_diagonal_friendly_matrix(self):
        result = matching.hungarian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_array_equal(result.slot_for_gold, [0, 1])
        assert result.total_cost == 0.0

    def test_worked_two_by_two(self):
        result = matching.hungarian(np.array([[-0.9, -0.1], [-0.8, -0.7]]))
        npt.assert_array_equal(result.slot_for_gold, [0, 1])
        npt.assert_allclose(result.total_cost, -1.6)

    def test_lexicographic_tie_break(self):
        result = matching.hungarian(np.zeros((3, 3)))
        npt.assert_array_equal(result.slot_for_gold, [0, 1, 2])
        result = matching.hungarian(np.array([[1.0, 1.0], [1.0, 1.0]]))
        npt.assert_array_equal(result.slot_for_gold, [0, 1])

    def test_tie_among_equivalent_columns(self):
        # columns 1 and 2 identical; row 0 must take the smaller index
        cost = np.array([[5.0, 1.0, 1.0],
                         [5.0, 1.0, 1.0],
                         [0.0, 9.0, 9.0]])
        result = matching.hungarian(cost)
        npt.assert_array_equal(result.slot_for_gold, [1, 2, 0])

    def test_rejects_nan_and_nonsquare(self):
        with pytest.raises(NumericDomainError):
            matching.hungarian(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(NumericDomainError):
            matching.hungarian(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ContractError):
            matching.hungarian(np.zeros((2, 3)))

    def test_agrees_with_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for m in (2, 3, 4, 5):
            for _ in range(50):
                cost = rng.standard_normal((m, m))
                fast = matching.hungarian(cost)
                slow = matching.exhaustive_assignment(cost)
                assert fast.total_cost == slow.total_cost
                npt.assert_array_equal(fast.slot_for_gold, slow.slot_for_gold)

    def test_exhaustive_capped(self):
        with pytest.raises(ContractError):
            matching.exhaustive_assignment(np.zeros((9, 9)))


@pytest.fixture
def solves(monkeypatch):
    """Counts assignment solves; the certified path makes one per match."""
    count = [0]
    solve = matching.linear_sum_assignment

    def counted(cost):
        count[0] += 1
        return solve(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counted)
    return count


def assert_same_assignment(a, b):
    npt.assert_array_equal(a.slot_for_gold, b.slot_for_gold)
    assert a.total_cost == b.total_cost


class TestTieCertificate:
    def test_uniform_probabilities_fall_back(self, solves):
        probs = np.full((5, 7), 1 / 7)
        cost = matching.match_cost(matching.pad_gold([0, 2, 4], 5, null_index=6), np.log(probs))
        result = matching.hungarian(cost)
        assert solves[0] > 1
        assert_same_assignment(result, matching.exhaustive_assignment(cost))

    def test_identical_slot_columns_fall_back(self, solves):
        probs = normalized_rows(np.random.default_rng(8), 4, 6)
        probs[3] = probs[1]
        cost = matching.match_cost(np.array([0, 1, 3, 4]), np.log(probs))
        result = matching.hungarian(cost)
        assert solves[0] > 1
        assert_same_assignment(result, matching.exhaustive_assignment(cost))

    @pytest.mark.parametrize("bands, certified", [(1.5, False), (2.5, True)])
    def test_gap_inside_twice_the_band_falls_back(self, solves, bands, certified):
        # the swap [1, 0, 2] wins by `bands` tie bands over the identity;
        # a win by less than two bands is refined, a wider one is certified
        gap = bands * matching._tie_band(2.0)
        cost = np.array([[1.0 + gap, 1.0, 5.0],
                         [1.0, 1.0, 5.0],
                         [0.0, 0.0, 0.0]])
        result = matching.hungarian(cost)
        assert (solves[0] == 1) == certified
        npt.assert_array_equal(result.slot_for_gold, [1, 0, 2])
        assert_same_assignment(result, matching.exhaustive_assignment(cost))

    def test_empty_gold_is_identity_without_solves(self, solves):
        probs = normalized_rows(np.random.default_rng(9), 6, 4)
        cost = matching.match_cost(np.full(6, 3), np.log(probs))
        result = matching.hungarian(cost)
        assert solves[0] == 0
        npt.assert_array_equal(result.slot_for_gold, np.arange(6))
        assert_same_assignment(result, matching.exhaustive_assignment(cost))

    def test_agrees_with_refinement_past_the_oracle_cap(self, monkeypatch):
        # m up to 32 and K up to 64, both cost modes; every other cost gets
        # an exact tie: two equal slot rows, or two gold labels with equal
        # probabilities on every slot
        rng = np.random.default_rng(10)
        refined = [0]
        refine = matching._refine

        def counted(cost):
            refined[0] += 1
            return refine(cost)

        monkeypatch.setattr(matching, "_refine", counted)
        trials = 504
        for trial in range(trials):
            m = (8, 16, 32)[trial % 3]
            num_labels = int(rng.integers(2, 65))
            logits = rng.standard_normal((m, num_labels + 1)) * rng.choice([1.0, 4.0])
            probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            labels = rng.choice(num_labels, size=int(rng.integers(0, min(m, num_labels) + 1)),
                                replace=False)
            if trial % 2 and labels.size >= 2 and rng.random() < 0.5:
                probs[:, labels[1]] = probs[:, labels[0]]
            elif trial % 2:
                a, b = rng.choice(m, size=2, replace=False)
                probs[b] = probs[a]
            cost_mode = matching.COST_MODES[(trial // 2) % 2]
            gold = matching.pad_gold(labels, m, num_labels)
            cost = matching.match_cost(gold, np.log(probs), cost_mode)
            assert_same_assignment(matching.hungarian(cost), refine(cost))
        # both paths ran: ties were refined, the rest certified
        assert 0 < refined[0] < trials


class TestSetLoss:
    def test_single_null_slot_with_confident_null(self):
        eps = 1e-13
        ps = PredictionSet(T.Tensor(np.log(np.array([[eps, eps, 1.0 - 2 * eps]]))))
        loss = matching.set_loss(np.array([2]), ps)
        assert abs(float(loss.data)) < 1e-9

    def test_worked_log_example(self):
        # gold = [label 1, null]; matching puts gold 1 on the 0.5 slot,
        # leaving the null on the 0.25 slot: -ln 0.5 - ln 0.25 = ln 8
        ps = PredictionSet(T.Tensor(np.log(np.array([
            [0.10, 0.50, 0.40],
            [0.45, 0.30, 0.25],
        ]))))
        loss = matching.set_loss(np.array([1, 2]), ps)
        npt.assert_allclose(float(loss.data), np.log(8.0), rtol=0, atol=1e-12)

    def test_invariant_under_gold_input_order(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m, classes = 5, 7
            probs = normalized_rows(rng, m, classes)
            labels = rng.choice(classes - 1, size=3, replace=False)
            ps = PredictionSet(T.Tensor(np.log(probs)))
            reference = None
            for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]):
                gold = matching.pad_gold(labels[perm], m, null_index=classes - 1)
                value = float(matching.set_loss(gold, ps).data)
                if reference is None:
                    reference = value
                assert value == reference  # exact: canonical order inside pad_gold

    def test_loss_nonnegative_and_zero_only_at_certainty(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            probs = normalized_rows(rng, 3, 4)
            gold = matching.pad_gold([rng.integers(3)], 3, null_index=3)
            ps = PredictionSet(T.Tensor(np.log(probs)))
            loss = float(matching.set_loss(np.asarray(gold), ps).data)
            assert loss > 0.0

    def test_gradient_flows_only_through_picked_probabilities(self):
        # leaf = logits; build softmax inside so rows stay normalized
        rng = np.random.default_rng(7)
        logits = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gold = np.array([0, 2, 3])

        def build(ls):
            ps = PredictionSet(T.log_softmax(ls[0]))
            return matching.set_loss(gold, ps)

        check_gradients(build, [logits])

    def test_batch_of_k64_matches_solves_once_per_sample(self, solves):
        # tripwire: the row-by-row refinement made 1,387 solves here
        rng = np.random.default_rng(11)
        batch, m, num_labels = 8, 32, 64
        logits = T.Tensor(rng.standard_normal((batch, m, num_labels + 1)))
        gold = np.stack([matching.pad_gold(rng.choice(num_labels, size=int(rng.integers(0, m + 1)),
                                                      replace=False), m, num_labels)
                         for _ in range(batch)])
        matching.set_loss(gold, PredictionSet(T.log_softmax(logits)))
        assert solves[0] <= batch


def test_training_loads_scipys_solver(tmp_path):
    # the solver's import waits for the first match: a fresh process loads
    # no SciPy building a set-prediction model, and scipy.optimize on its
    # first training step
    script = """
import sys
from labelset import tensor as T
from labelset.data import SyntheticSpec, synthetic_corpus
from labelset.model import RunConfig, build_model
from labelset.training import batch_loss
corpus = synthetic_corpus(SyntheticSpec(num_labels=5, vocab_size=30, train_size=8,
                                        valid_size=4, test_size=4, seed=3))
model = build_model(RunConfig(d_model=8, encoder_layers=1, decoder_layers=1, encoder_heads=2,
                              decoder_heads=2, gcn_layers=1, max_len=16), corpus)
print(any(name.startswith("scipy") for name in sys.modules))
T.backward(batch_loss(model, list(corpus.train)[:4]).total)
print("scipy.optimize" in sys.modules)
"""
    done = run_python(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
    cost = np.random.default_rng(12).standard_normal((5, 9))
    for ours, scipys in zip(matching.linear_sum_assignment(cost), linear_sum_assignment(cost)):
        npt.assert_array_equal(ours, scipys)
