"""Set decoder output contracts and the sigmoid baseline head."""

import numpy as np
import numpy.testing as npt
import pytest

from labelset import decoder as dec
from labelset import tensor as T
from labelset.encoder import CLS, SEP, TransformerEncoder
from labelset.errors import ConfigError, ContractError


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def encoded(seed=0, ids=(CLS, 4, 5, SEP)):
    model = TransformerEncoder(np.random.default_rng(seed), vocab_size=10, d_model=8,
                               num_layers=1, num_heads=2, max_len=12)
    return model.encode(np.array(ids))


def make_decoder(m=3, num_classes=8, seed=1, layers=1):
    return dec.SetDecoder(np.random.default_rng(seed), num_queries=m, num_classes=num_classes,
                          d_model=8, num_layers=layers, num_heads=2)


class TestDecode:
    def test_shape_and_row_normalization(self):
        model = make_decoder(m=3, num_classes=8)
        rng = np.random.default_rng(2)
        queries = T.Tensor(rng.standard_normal((3, 8)))
        ps = model.decode(queries, encoded())
        assert ps.log_probs.shape == (3, 8)
        npt.assert_allclose(np.exp(ps.log_probs.data).sum(axis=1), np.ones(3), rtol=0, atol=1e-12)
        assert (ps.log_probs.data < 0).all()
        assert ps.null_index == 7

    def test_query_permutation_equivariance(self):
        model = make_decoder(m=4, num_classes=6)
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((4, 8))
        perm = np.array([2, 0, 3, 1])
        with T.no_grad():
            base = model.decode(T.Tensor(queries), encoded()).log_probs.data
            shuffled = model.decode(T.Tensor(queries[perm]), encoded()).log_probs.data
        npt.assert_allclose(shuffled, base[perm], rtol=0, atol=1e-9)

    def test_minimal_memory_still_valid(self):
        model = make_decoder()
        queries = T.Tensor(np.random.default_rng(4).standard_normal((3, 8)))
        ps = model.decode(queries, encoded(ids=(CLS, SEP)))
        npt.assert_allclose(np.exp(ps.log_probs.data).sum(axis=1), np.ones(3), atol=1e-12)

    def test_width_mismatch_rejected(self):
        model = make_decoder(m=2)
        with pytest.raises(ConfigError):
            model.decode(T.Tensor(np.zeros((2, 5))), encoded())
        with pytest.raises(ConfigError):
            model.decode(T.Tensor(np.zeros((3, 8))), encoded())

    def test_forward_ignores_gold_by_construction(self):
        # same inputs decode identically; no target information enters
        model = make_decoder()
        queries = T.Tensor(np.random.default_rng(5).standard_normal((3, 8)))
        memory = encoded()
        with T.no_grad():
            a = model.decode(queries, memory).log_probs.data
            b = model.decode(queries, memory).log_probs.data
        assert a.tobytes() == b.tobytes()

    def test_saturated_row_stays_finite(self):
        # a logit gap of 1000 would underflow a probability to an exact 0;
        # its log-probability is about -1000
        model = make_decoder()
        model.head.bias.data[-1] = 1000.0
        queries = T.Tensor(np.random.default_rng(6).standard_normal((3, 8)))
        log_probs = model.decode(queries, encoded()).log_probs.data
        assert np.isfinite(log_probs).all()
        assert (log_probs[:, :-1] < -990.0).all()
        npt.assert_allclose(log_probs[:, -1], 0.0, rtol=0, atol=1e-300)


class TestPredictionSetValidation:
    def test_rejects_nan_rows(self):
        # a probability of exactly 0 (log-probability -inf) is a valid row
        dec.PredictionSet(T.Tensor(np.array([[-np.inf, 0.0], [np.log(0.5), np.log(0.5)]])))
        bad = T.Tensor(np.array([[np.nan, 0.0], [np.log(0.5), np.log(0.5)]]))
        with pytest.raises(ContractError):
            dec.PredictionSet(bad)

    def test_rejects_unnormalized_rows(self):
        bad = T.Tensor(np.log(np.array([[0.4, 0.4]])))
        with pytest.raises(ContractError):
            dec.PredictionSet(bad)


def hand_prediction_set(rows):
    return dec.PredictionSet(T.Tensor(np.log(np.asarray(rows, dtype=np.float64))))


class TestPredictLabels:
    def test_all_null_gives_empty_set(self):
        ps = hand_prediction_set([[0.1, 0.2, 0.7], [0.3, 0.1, 0.6]])
        assert dec.predict_labels(ps) == set()

    def test_duplicates_collapse(self):
        ps = hand_prediction_set([[0.1, 0.8, 0.1], [0.15, 0.8, 0.05], [0.1, 0.1, 0.8]])
        assert dec.predict_labels(ps) == {1}

    def test_two_distinct_labels(self):
        ps = hand_prediction_set([
            [0.7, 0.1, 0.1, 0.05, 0.05],
            [0.05, 0.05, 0.1, 0.7, 0.1],
        ])
        assert dec.predict_labels(ps) == {0, 3}


class TestBceHead:
    def test_zero_logits_give_half_probabilities(self):
        head = dec.BceHead(np.random.default_rng(6), d_model=8, num_labels=3)
        head.readout.weight.data[...] = 0.0
        head.readout.bias.data[...] = 0.0
        memory = encoded()
        with T.no_grad():
            logits = head.logits(memory).data
        npt.assert_array_equal(logits, np.zeros(3))
        assert head.predict(memory) == {0, 1, 2}  # 0.5 >= 0.5 threshold

    def test_loss_matches_direct_formula(self):
        head = dec.BceHead(np.random.default_rng(7), d_model=8, num_labels=3)
        memory = encoded()
        gold = {0, 2}
        loss = head.loss(memory, gold)
        with T.no_grad():
            z = head.logits(memory).data
        y = np.array([1.0, 0.0, 1.0], dtype=z.dtype)
        direct = np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z))))
        npt.assert_allclose(float(loss.data), direct, rtol=0, atol=1e-15)

    def test_confident_correct_probabilities_drive_loss_to_zero(self):
        head = dec.BceHead(np.random.default_rng(8), d_model=4, num_labels=2)
        head.readout.weight.data[...] = 0.0
        for big, gold in ((30.0, {0}),):
            head.readout.bias.data[:] = [big, -big]
            encoder = TransformerEncoder(np.random.default_rng(0), vocab_size=6, d_model=4,
                                         num_layers=1, num_heads=1, max_len=4)
            memory = encoder.encode(np.array([CLS, SEP]))
            assert float(head.loss(memory, gold).data) < 1e-9

    def test_out_of_range_gold_rejected(self):
        head = dec.BceHead(np.random.default_rng(9), d_model=8, num_labels=3)
        with pytest.raises(ContractError):
            head.loss(encoded(), {5})
