"""Model assembly, configuration validation, and checkpoint round trips."""

import json
import os

import numpy as np
import pytest

import labelset.tensor as T
from labelset.data import SyntheticSpec, synthetic_corpus
from labelset.errors import CheckpointError, ConfigError
from labelset.model import (
    Model,
    RunConfig,
    build_model,
    load_checkpoint,
    resolve_num_queries,
    save_checkpoint,
)
from labelset.training import evaluate


def tiny_corpus(seed=0, num_labels=5):
    spec = SyntheticSpec(
        num_labels=num_labels,
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


class TestRunConfig:
    def test_from_dict_round_trip(self):
        cfg = tiny_config(bc_weight=0.25, tau=0.3)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_dict({"d_model": 16, "not_a_field": 1})

    def test_bad_values_rejected(self):
        for field, value in [
            ("d_model", 0),
            ("encoder_heads", 3),  # 16 % 3 != 0
            ("dropout", 1.0),
            ("tau", -0.1),
            ("tau", 1.5),
            ("p_neighbor", 1.5),
            ("bc_weight", -1.0),
            ("learning_rate", 0.0),
            ("epochs", 0),
            ("batch_size", 0),
            ("head", "linear_probe"),
            ("cost_mode", "squared"),
            ("gcn_activation", "tanh"),
            ("num_queries", 0),
            ("max_len", 2),
            ("decoder_heads", 3),
            ("encoder_layers", 0),
            ("decoder_layers", 0),
            ("gcn_layers", 0),
            ("dropout", -0.1),
            ("p_neighbor", 0.0),
            ("out_dir", ""),
        ]:
            with pytest.raises(ConfigError):
                tiny_config(**{field: value})

    def test_effective_bc_weight_respects_toggle(self):
        assert tiny_config(bc_weight=0.4).effective_bc_weight == 0.4
        assert tiny_config(bc_weight=0.4, use_bc=False).effective_bc_weight == 0.0

    def test_resolve_num_queries_from_data(self):
        corpus = tiny_corpus()
        m = resolve_num_queries(tiny_config(), corpus)
        widest = max(len(s.labels) for s in corpus.train.samples)
        assert m == min(widest + 2, corpus.label_vocab.size)

    def test_resolve_num_queries_explicit_wins(self):
        corpus = tiny_corpus()
        assert resolve_num_queries(tiny_config(num_queries=3), corpus) == 3

    def test_too_few_slots_rejected_before_building(self):
        corpus = tiny_corpus()
        widest = max(len(s.labels) for s in corpus.train.samples)
        with pytest.raises(ConfigError, match=f"largest training gold set \\({widest} labels\\)"):
            build_model(tiny_config(num_queries=widest - 1), corpus)
        assert build_model(tiny_config(num_queries=widest), corpus).config.num_queries == widest
        # the sigmoid head has no slots to fill
        build_model(tiny_config(num_queries=1, head="bce"), corpus)


class TestModelAssembly:
    def test_builds_all_components(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        names = dict(model.named_parameters())
        assert any(n.startswith("encoder.") for n in names)
        assert any(n.startswith("gcn.") for n in names)
        assert any(n.startswith("query_projection.") for n in names)
        assert any(n.startswith("decoder.") for n in names)

    def test_no_gcn_uses_query_table(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(use_gcn=False), corpus)
        names = dict(model.named_parameters())
        assert "query_table" in names
        assert not any(n.startswith("gcn.") for n in names)
        assert model.propagation is None

    def test_bce_head_has_no_decoder(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(head="bce"), corpus)
        names = dict(model.named_parameters())
        assert any(n.startswith("bce.") for n in names)
        assert not any(n.startswith("decoder.") for n in names)

    def test_seeded_build_is_deterministic(self):
        corpus = tiny_corpus()
        a = build_model(tiny_config(), corpus)
        b = build_model(tiny_config(), corpus)
        pa = a.named_parameters()
        pb = b.named_parameters()
        assert list(pa) == list(pb)
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data)

    def test_queries_shape(self):
        corpus = tiny_corpus()
        cfg = tiny_config()
        model = build_model(cfg, corpus)
        T.reset_tape()
        q = model.queries()
        assert q.data.shape == (model.config.num_queries, cfg.d_model)

    def test_predict_returns_sorted_known_labels(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        sample = corpus.valid.samples[0]
        got = model.predict(sample.tokens)
        assert list(got) == sorted(set(got))
        assert all(0 <= l < corpus.label_vocab.size for l in got)

    @pytest.mark.parametrize("head", ["set_prediction", "bce"])
    def test_rows_batched_by_length_match_predict_bitwise(self, head):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(head=head), corpus)
        rows = [sample.tokens for sample in corpus.valid]
        lengths = sorted({row.shape[0] for row in rows})
        assert len(lengths) >= 3
        assert max(sum(r.shape[0] == n for r in rows) for n in lengths) > model.config.batch_size
        assert model.predict_many(rows) == [model.predict(row) for row in rows]
        if head == "bce":
            return
        with T.no_grad():
            queries = model.queries()
            for length in lengths:
                group = [row for row in rows if row.shape[0] == length]
                batched = model.decode(queries, model.encode(np.stack(group))).log_probs.data
                for row, log_probs in zip(group, batched):
                    alone = model.decode(queries, model.encode(row)).log_probs.data
                    assert log_probs.tobytes() == alone.tobytes()

    def test_predict_many_computes_the_queries_once(self, monkeypatch):
        corpus = synthetic_corpus(SyntheticSpec())
        model = build_model(RunConfig(), corpus)
        rows = [sample.tokens for sample in corpus.valid]
        assert len({row.shape[0] for row in rows}) >= 3
        calls = []
        queries = model.queries

        def counting():
            calls.append(1)
            return queries()

        monkeypatch.setattr(model, "queries", counting)
        model.predict_many(rows)
        assert len(calls) == 1

    def test_predict_many_clips_and_keeps_order(self, monkeypatch):
        corpus = tiny_corpus()
        model = build_model(tiny_config(max_len=5, batch_size=2), corpus)
        rows = [sample.tokens for sample in corpus.valid]
        assert any(row.shape[0] > 5 for row in rows)
        batches = []
        encode = model.encode

        def recording(tokens, mask=None, **kwargs):
            batches.append((np.array(tokens), mask))
            return encode(tokens, mask, **kwargs)

        monkeypatch.setattr(model, "encode", recording)
        got = model.predict_many(rows)
        # unpadded batches of at most batch_size rows and max_len tokens, every row once
        assert all(mask is None and tokens.ndim == 2 and len(tokens) <= 2 and (tokens != 0).all()
                   and tokens.shape[1] <= 5 for tokens, mask in batches)
        assert sum(len(tokens) for tokens, _ in batches) == len(rows)
        assert got == [model.predict(row) for row in rows]
        assert model.predict_many([]) == []

    def test_freeze_encoder_filters_trainables(self):
        corpus = tiny_corpus()
        model = build_model(tiny_config(freeze_encoder=True), corpus)
        trainable = model.trainable_parameters()
        assert trainable
        assert not any(n.startswith("encoder.") for n in trainable)
        full = dict(model.named_parameters())
        assert set(full) - set(trainable) == {
            n for n in full if n.startswith("encoder.")
        }


def tampered(path, mutate):
    """Rewrite a checkpoint archive after applying ``mutate`` to its arrays."""
    with np.load(str(path), allow_pickle=False) as archive:
        blob = {key: archive[key] for key in archive.files}
    mutate(blob)
    np.savez(str(path), **blob)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), model)
        restored = load_checkpoint(str(path))

        assert restored.label_vocab.names == corpus.label_vocab.names
        assert restored.token_vocab.to_list() == corpus.token_vocab.to_list()
        before = model.named_parameters()
        after = restored.named_parameters()
        assert set(before) == set(after)
        for name in before:
            assert np.array_equal(before[name].data, after[name].data)
        assert np.array_equal(restored.propagation, model.propagation)
        assert evaluate(restored, corpus.test) == evaluate(model, corpus.test)

    def test_no_gcn_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        model = build_model(tiny_config(use_gcn=False), corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), model)
        restored = load_checkpoint(str(path))
        assert restored.propagation is None
        assert evaluate(restored, corpus.test) == evaluate(model, corpus.test)

    def test_version_mismatch_rejected(self, tmp_path):
        corpus = tiny_corpus()
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), build_model(tiny_config(), corpus))

        def bump(blob):
            blob["__version__"] = np.array(999)

        tampered(path, bump)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_missing_parameter_rejected(self, tmp_path):
        corpus = tiny_corpus()
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), build_model(tiny_config(), corpus))

        def drop(blob):
            victim = next(k for k in blob if k.startswith("param/decoder."))
            del blob[victim]

        tampered(path, drop)
        with pytest.raises(CheckpointError, match="parameter"):
            load_checkpoint(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        corpus = tiny_corpus()
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), build_model(tiny_config(), corpus))

        def squash(blob):
            victim = next(k for k in sorted(blob) if k.startswith("param/"))
            blob[victim] = np.zeros((1, 1))

        tampered(path, squash)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(str(path))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        corpus = tiny_corpus()
        model = build_model(tiny_config(), corpus)
        path = tmp_path / "best.npz"
        save_checkpoint(str(path), model)
        before = path.read_bytes()

        def crash(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), build_model(tiny_config(seed=1), corpus))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["best.npz"]
        assert evaluate(load_checkpoint(str(path)), corpus.test) == evaluate(model, corpus.test)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_config_survives_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_config(bc_weight=0.33, tau=0.2)
        model = build_model(cfg, corpus)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), model)
        stored = load_checkpoint(str(path)).config.to_dict()
        assert stored["bc_weight"] == 0.33
        assert stored["tau"] == 0.2
        assert stored["num_queries"] == model.config.num_queries


def test_float64_checkpoint_loads_as_float32_and_predicts(tmp_path):
    corpus = tiny_corpus()
    model = build_model(tiny_config(), corpus)
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model)

    def widen(blob):
        for key in blob:
            if key.startswith("param/"):
                blob[key] = blob[key].astype(np.float64)

    tampered(path, widen)
    with np.load(str(path), allow_pickle=False) as archive:
        assert archive["param/decoder.head.weight"].dtype == np.float64
    restored = load_checkpoint(str(path))
    for name, param in restored.named_parameters().items():
        assert param.data.dtype == np.float32, name
        assert np.array_equal(param.data, model.named_parameters()[name].data), name
    assert evaluate(restored, corpus.test) == evaluate(model, corpus.test)
