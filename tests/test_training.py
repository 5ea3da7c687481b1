"""Optimizer behavior, training loop determinism, and failure handling."""

import io
import json
import math

import numpy as np
import pytest

import labelset.tensor as T
import labelset.training as training_mod
from helpers import check_gradients
from labelset.data import Batch, RawRecord, SyntheticSpec, batch_iterator, build_corpus, pad_batch, synthetic_corpus
from labelset.errors import ContractError, NumericDomainError, TrainingDiverged
from labelset.model import RunConfig, build_model, load_checkpoint
from labelset.training import Adam, BatchLoss, batch_loss, evaluate, run_training, train


def tiny_corpus(seed=0):
    spec = SyntheticSpec(
        num_labels=5,
        vocab_size=30,
        train_size=24,
        valid_size=8,
        test_size=8,
        bias_pairs=((0, 1, 0.8),),
        seed=seed,
    )
    return synthetic_corpus(spec)


def tiny_config(**overrides):
    base = dict(
        d_model=16,
        encoder_layers=1,
        encoder_heads=2,
        decoder_layers=1,
        decoder_heads=2,
        gcn_layers=1,
        epochs=2,
        batch_size=4,
        max_len=32,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # With constant gradient g, bias correction makes the very first
        # update exactly lr * g / (|g| + eps) regardless of g's magnitude.
        w = T.Tensor(np.array([10.0, -4.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.5)
        w.grad[:] = np.array([3.0, -7.0])
        opt.step()
        step1 = 0.5 * 3.0 / (3.0 + 1e-8)
        step2 = 0.5 * 7.0 / (7.0 + 1e-8)
        assert np.allclose(w.data, [10.0 - step1, -4.0 + step2], atol=1e-12)

    def test_matches_reference_formula_over_steps(self):
        rng = np.random.default_rng(3)
        w = T.Tensor(rng.normal(size=4), requires_grad=True)
        ref = w.data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam({"w": w}, lr=lr)
        for t in range(1, 6):
            g = rng.normal(size=4)
            w.grad[:] = g
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.allclose(w.data, ref, atol=1e-12)

    def test_zero_grad_clears(self):
        params = {f"p{i}": T.Tensor(np.ones(shape), requires_grad=True)
                  for i, shape in enumerate([(1,), (5,), (3, 4), (2, 2, 4)])}
        opt = Adam(params, lr=0.1)
        for p in params.values():
            p.grad[...] = 5.0
        opt.zero_grad()
        for p in params.values():
            assert np.array_equal(p.grad, np.zeros(p.shape))

    def test_blocked_step_matches_a_per_parameter_reference_bitwise(self, monkeypatch):
        # blocks of 7 elements straddle parameters of 1, 5, 12 and 16 elements
        monkeypatch.setattr(training_mod, "BLOCK", 7)
        rng = np.random.default_rng(5)
        shapes = [(1,), (5,), (3, 4), (2, 2, 4)]
        params = {f"p{i}": T.Tensor(rng.normal(size=shape), requires_grad=True)
                  for i, shape in enumerate(shapes)}
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(p.shape) for name, p in params.items()}
        v = {name: np.zeros(p.shape) for name, p in params.items()}
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, 6):
            for name, p in params.items():
                g = rng.normal(size=p.shape)
                p.grad[...] = g
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * g * g
                ref[name] -= lr * (m[name] / (1.0 - b1 ** t)) / (np.sqrt(v[name] / (1.0 - b2 ** t)) + eps)
            opt.step()
            for name, p in params.items():
                assert p.data.tobytes() == ref[name].tobytes(), (t, name)

    @pytest.mark.parametrize("field", ["data", "grad"])
    def test_rebound_parameter_is_a_contract_error(self, field):
        params = {"a": T.Tensor(np.ones(3), requires_grad=True),
                  "b": T.Tensor(np.ones((2, 2)), requires_grad=True)}
        opt = Adam(params, lr=0.1)
        setattr(params["b"], field, np.ones((2, 2)))
        with pytest.raises(ContractError, match="'b'"):
            opt.step()

    def test_default_model_parameters_view_the_optimizer_buffers(self):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        before = {name: p.data.copy() for name, p in model.trainable_parameters().items()}
        opt = Adam(model.trainable_parameters(), lr=1e-3)
        assert opt.data.size == sum(a.size for a in before.values())
        for name, p in model.trainable_parameters().items():
            assert p.data.base is opt.data and p.grad.base is opt.grad, name
            assert np.array_equal(p.data, before[name]), name


class TestTrainingLoop:
    def test_history_and_checkpoint(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_config(epochs=3)
        model = build_model(cfg, corpus)
        log = io.StringIO()
        result = train(model, corpus, out_dir=str(tmp_path), log_stream=log)

        assert len(result.history) == 3
        assert [r.epoch for r in result.history] == [1, 2, 3]
        assert all(math.isfinite(r.train_loss) for r in result.history)
        assert result.best_epoch >= 1
        assert result.best_valid_f1 == max(r.valid_f1 for r in result.history)
        assert (tmp_path / "best.npz").exists()
        assert result.checkpoint_path == str(tmp_path / "best.npz")

        stream_lines = log.getvalue().splitlines()
        assert len(stream_lines) == 3
        assert all(line.startswith("epoch") for line in stream_lines)

        on_disk = [
            json.loads(l)
            for l in (tmp_path / "train_log.jsonl").read_text().splitlines()
        ]
        assert len(on_disk) == 3
        assert on_disk[0]["epoch"] == 1
        assert set(on_disk[0]) == {"epoch", "train_loss", "set_loss", "bc_penalty",
                                   "grad_norm", "valid_f1", "valid_hamming"}
        assert all(math.isfinite(row["grad_norm"]) and row["grad_norm"] > 0.0 for row in on_disk)
        assert [row["train_loss"] for row in on_disk] == [
            r.train_loss for r in result.history
        ]

    def test_loss_decreases_on_easy_data(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(epochs=4), corpus)
        result = train(model, corpus)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_two_seeded_runs_bit_identical(self):
        corpus = tiny_corpus()
        runs = []
        for _ in range(2):
            model, result = run_training(tiny_config(epochs=2), corpus)
            rep = evaluate(model, corpus.test)
            runs.append((result.history, rep))
        hist_a, rep_a = runs[0]
        hist_b, rep_b = runs[1]
        assert [r.train_loss for r in hist_a] == [r.train_loss for r in hist_b]
        assert [r.valid_f1 for r in hist_a] == [r.valid_f1 for r in hist_b]
        assert rep_a == rep_b

    def test_two_seeded_runs_with_dropout_bit_identical(self):
        corpus = tiny_corpus()
        runs = []
        for _ in range(2):
            model, result = run_training(tiny_config(epochs=2, dropout=0.1), corpus)
            params = {n: p.data.tobytes() for n, p in model.named_parameters().items()}
            runs.append((result.history, params))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_different_seeds_differ(self):
        corpus = tiny_corpus()
        _, res_a = run_training(tiny_config(epochs=1, seed=0), corpus)
        _, res_b = run_training(tiny_config(epochs=1, seed=1), corpus)
        assert res_a.history[0].train_loss != res_b.history[0].train_loss

    def test_bc_toggle_matches_zero_weight_exactly(self):
        corpus = tiny_corpus()
        _, res_a = run_training(tiny_config(epochs=2, use_bc=False), corpus)
        _, res_b = run_training(tiny_config(epochs=2, bc_weight=0.0), corpus)
        assert [r.train_loss for r in res_a.history] == [
            r.train_loss for r in res_b.history
        ]

    @pytest.mark.parametrize("overrides", [{}, {"bc_weight": 0.5}, {"use_bc": False}, {"head": "bce"}])
    def test_loss_split_adds_up_to_train_loss(self, overrides):
        corpus = tiny_corpus()
        config = tiny_config(**overrides)
        _, result = run_training(config, corpus)
        for r in result.history:
            assert r.set_loss > 0.0
            assert abs(r.train_loss - (r.set_loss + config.effective_bc_weight * r.bc_penalty)) <= 1e-12
            assert (r.bc_penalty > 0.0) == (config.effective_bc_weight > 0.0 and config.head != "bce")

    def test_bc_weight_changes_loss(self):
        corpus = tiny_corpus()
        _, res_a = run_training(tiny_config(epochs=1, bc_weight=0.0), corpus)
        _, res_b = run_training(tiny_config(epochs=1, bc_weight=0.5), corpus)
        assert res_a.history[0].train_loss != res_b.history[0].train_loss

    def test_bce_head_trains(self):
        corpus = tiny_corpus()
        model, result = run_training(tiny_config(epochs=3, head="bce"), corpus)
        assert result.history[-1].train_loss < result.history[0].train_loss
        rep = evaluate(model, corpus.test)
        assert 0.0 <= rep["f1"] <= 1.0

    def test_frozen_encoder_params_unchanged(self):
        corpus = tiny_corpus()
        cfg = tiny_config(epochs=1, freeze_encoder=True)
        model = build_model(cfg, corpus)
        before = {
            n: p.data.copy()
            for n, p in model.named_parameters().items()
            if n.startswith("encoder.")
        }
        train(model, corpus)
        for n, p in model.named_parameters().items():
            if n.startswith("encoder."):
                assert np.array_equal(p.data, before[n])

    def test_frozen_encoder_takes_no_gradient(self, monkeypatch):
        corpus = tiny_corpus()
        model = build_model(tiny_config(epochs=1, freeze_encoder=True), corpus)
        recorded = []
        encode = model.encode

        def counting(*args, **kwargs):
            before = len(T.active_tape())
            memory = encode(*args, **kwargs)
            if kwargs.get("train"):
                recorded.append(len(T.active_tape()) - before)
            return memory

        monkeypatch.setattr(model, "encode", counting)
        train(model, corpus)
        assert recorded and set(recorded) == {0}
        encoder = [p for n, p in model.named_parameters().items() if n.startswith("encoder.")]
        assert encoder and all(p.grad is None for p in encoder)

    def test_divergence_raises_and_keeps_best(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        cfg = tiny_config(epochs=5)
        model = build_model(cfg, corpus)
        real = training_mod.batch_loss
        calls = {"n": 0}
        batches_per_epoch = math.ceil(len(corpus.train.samples) / cfg.batch_size)

        def poisoned(model, batch, queries, dropout_rng, train):
            calls["n"] += 1
            if calls["n"] > batches_per_epoch:  # first batch of epoch 2
                return BatchLoss(T.Tensor(np.array(float("nan"))), float("nan"), 0.0)
            return real(model, batch, queries, dropout_rng, train)

        monkeypatch.setattr(training_mod, "batch_loss", poisoned)
        with pytest.raises(TrainingDiverged, match="epoch 2"):
            train(model, corpus, out_dir=str(tmp_path))

        # Epoch 1 completed, so its best checkpoint must already be on disk
        # and loadable.
        assert (tmp_path / "best.npz").exists()
        restored = load_checkpoint(str(tmp_path / "best.npz"))
        rep = evaluate(restored, corpus.valid)
        assert math.isfinite(rep["f1"])

    def test_divergence_on_first_batch(self, monkeypatch):
        corpus = tiny_corpus()
        model = build_model(tiny_config(epochs=1), corpus)
        monkeypatch.setattr(
            training_mod,
            "batch_loss",
            lambda *a, **k: BatchLoss(T.Tensor(np.array(float("inf"))), float("inf"), 0.0),
        )
        with pytest.raises(TrainingDiverged):
            train(model, corpus)

    def test_divergence_through_the_parameters(self, tmp_path):
        # a huge step makes the parameters non-finite; softmax meets the
        # NaN/Inf before any loss does
        corpus = tiny_corpus()
        model = build_model(tiny_config(epochs=1, learning_rate=1e300), corpus)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDiverged, match="at epoch 1; no checkpoint was saved") as info:
            train(model, corpus, out_dir=str(tmp_path))
        assert isinstance(info.value.__cause__, NumericDomainError)
        assert not (tmp_path / "best.npz").exists()

    def test_saturated_logits_train_to_a_checkpoint(self, tmp_path):
        # a logit gap above about 745 underflows a slot probability to 0;
        # its log-probability, the loss and the gradients stay finite
        corpus = tiny_corpus()
        for cost_mode in ("prob", "log_prob"):
            model = build_model(tiny_config(epochs=1, cost_mode=cost_mode), corpus)
            model.decoder.head.bias.data[-1] = 1000.0
            out_dir = tmp_path / cost_mode
            result = train(model, corpus, out_dir=str(out_dir))
            assert math.isfinite(result.history[0].train_loss)
            assert math.isfinite(result.history[0].grad_norm)
            assert (out_dir / "best.npz").exists()


class TestEvaluate:
    def test_matches_manual_accumulation(self):
        from labelset.metrics import MetricAccumulator

        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        acc = MetricAccumulator(corpus.label_vocab.size)
        for sample in corpus.valid.samples:
            acc.accumulate(set(sample.labels), model.predict(sample.tokens))
        assert evaluate(model, corpus.valid) == acc.finalize()

    def test_report_shape(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        rep = evaluate(model, corpus.valid)
        assert set(rep) == {"f1", "precision", "recall", "hamming_loss"}
        assert all(0.0 <= rep[k] <= 1.0 for k in rep)


class TestBatchLoss:
    def test_gradients_of_a_padded_batch(self):
        # three sentences of different lengths, so two of them are padded;
        # GCN queries and the overlap penalty both on
        records = [
            RawRecord("alpha beta", ("red", "green")),
            RawRecord("alpha gamma beta delta", ("red", "blue")),
            RawRecord("epsilon", ("yellow",)),
            RawRecord("gamma delta", ("blue", "green")),
        ]
        corpus = build_corpus(records, records[:2], [])
        config = RunConfig(d_model=8, encoder_layers=1, encoder_heads=2, decoder_layers=1,
                           decoder_heads=2, gcn_layers=1, num_queries=3, max_len=8,
                           bc_weight=0.1, seed=3)
        model = build_model(config, corpus)
        assert model.gcn is not None and config.effective_bc_weight > 0.0
        samples = corpus.train.samples[:3]
        tokens, mask = pad_batch([s.tokens for s in samples])
        assert sorted(mask.sum(axis=1)) == [3.0, 4.0, 6.0]
        batch = Batch(samples=samples, tokens=tokens, mask=mask)
        params = model.named_parameters()
        leaves = [params[name] for name in sorted(params)]
        check_gradients(lambda _: batch_loss(model, batch, model.queries(), None, train=False).total,
                        leaves, tol=1e-3, step=1e-5)

    def test_batch_loss_is_the_mean_of_per_sample_losses(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        batch = next(batch_iterator(corpus.train, 4, clip=model.encoder.clip))
        with T.no_grad():
            whole = float(batch_loss(model, batch, model.queries(), None, train=False).total.data)
            alone = []
            for row, sample in enumerate(batch.samples):
                one = Batch([sample], batch.tokens[row:row + 1], batch.mask[row:row + 1])
                alone.append(float(batch_loss(model, one, model.queries(), None, train=False).total.data))
        assert whole == pytest.approx(np.mean(alone), rel=1e-12)

    def test_default_batch_stays_within_12_tape_nodes_per_sample(self):
        # one encoder and one decoder pass per batch, not one per sample, and
        # one node per linear layer and per attention
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        batch = next(batch_iterator(corpus.train, 8, clip=model.encoder.clip))
        assert len(batch.samples) == 8
        tape = T.active_tape()
        T.reset_tape()
        memory = model.encode(batch.tokens, batch.mask, rng=np.random.default_rng(0), train=True)
        encode_nodes = len(tape)
        queries = model.queries()
        before_decode = len(tape)
        model.decode(queries, memory, rng=np.random.default_rng(0), train=True)
        decode_nodes = len(tape) - before_decode
        T.reset_tape()
        batch_loss(model, batch, model.queries(), np.random.default_rng(0), train=True)
        nodes = len(tape)
        T.reset_tape()
        assert encode_nodes <= 28, f"{encode_nodes} tape nodes in encode"
        assert decode_nodes <= 41, f"{decode_nodes} tape nodes in decode"
        assert nodes / 8 <= 12, f"{nodes} tape nodes for 8 samples"
