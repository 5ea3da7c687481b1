"""Corpus ingestion, vocabularies, synthetic generation, batching."""

import json

import numpy as np
import pytest

from helpers import rule_labels
from labelset import data
from labelset import tensor as T
from labelset.encoder import CLS, PAD, SEP
from labelset.errors import ConfigError, ContractError, ParseError, ValidationError
from labelset.model import RunConfig, build_model


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_line(text, labels):
    return json.dumps({"text": text, "labels": labels})


class TestReadJsonl:
    def test_basic_record(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record_line("add song to playlist and book a table",
                                    ["AddToPlaylist", "BookRestaurant"])])
        records, dups = data.read_jsonl(p)
        assert len(records) == 1
        assert records[0].labels == ("AddToPlaylist", "BookRestaurant")
        assert dups == 0

    def test_duplicate_labels_collapsed_and_counted(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record_line("x", ["a", "b", "a", "a"])])
        records, dups = data.read_jsonl(p)
        assert records[0].labels == ("a", "b")
        assert dups == 2

    def test_bad_json_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [record_line("x", ["a"]), "{not json"])
        with pytest.raises(ParseError, match=r":2:"):
            data.read_jsonl(p)

    def test_field_type_errors(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [json.dumps({"text": 7, "labels": []})])
        with pytest.raises(ParseError, match="text"):
            data.read_jsonl(p)
        write_lines(p, [json.dumps({"text": "x", "labels": ["a", 3]})])
        with pytest.raises(ParseError, match="labels"):
            data.read_jsonl(p)
        write_lines(p, ['["not", "an", "object"]'])
        with pytest.raises(ParseError, match="object"):
            data.read_jsonl(p)

    def test_round_trip_is_normalization(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_lines(p1, [record_line("Hello There", ["x", "y", "x"]),
                         record_line("second", ["z"])])
        records, _ = data.read_jsonl(p1)
        data.write_jsonl(p2, records)
        again, dups = data.read_jsonl(p2)
        assert again == records
        assert dups == 0


class TestLabelVocabulary:
    def test_first_occurrence_order_and_null_index(self):
        records = [data.RawRecord("t", ("b", "a")), data.RawRecord("t", ("c", "a"))]
        vocab = data.LabelVocabulary.build(records)
        assert vocab.names == ("b", "a", "c")
        assert vocab.size == 3
        assert vocab.null_index == 3
        assert vocab.encode(["c", "b"]) == (0, 2)

    def test_rebuild_stability(self):
        records = [data.RawRecord("t", ("m", "k")), data.RawRecord("t", ("j",))]
        v1 = data.LabelVocabulary.build(records)
        v2 = data.LabelVocabulary.build(records)
        assert v1.names == v2.names

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            data.LabelVocabulary(["a", "a"])


class TestBuildCorpus:
    def make(self, train, valid=(), test=()):
        return data.build_corpus(
            [data.RawRecord(t, tuple(ls)) for t, ls in train],
            [data.RawRecord(t, tuple(ls)) for t, ls in valid],
            [data.RawRecord(t, tuple(ls)) for t, ls in test],
        )

    def test_vocab_from_train_only_and_drop_counter(self):
        corpus = self.make(
            train=[("alpha beta", ["a"]), ("gamma", ["b"])],
            valid=[("alpha", ["a", "never_seen"])],
        )
        assert corpus.label_vocab.names == ("a", "b")
        assert corpus.valid[0].labels == (0,)
        assert corpus.counters["dropped_unseen_labels"] == 1

    def test_empty_training_labels_rejected(self):
        with pytest.raises(ValidationError):
            self.make(train=[("x", [])])

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValidationError):
            self.make(train=[])

    def test_tokens_wrapped_with_specials(self):
        corpus = self.make(train=[("alpha beta", ["a"])])
        tokens = corpus.train[0].tokens
        assert tokens[0] == CLS and tokens[-1] == SEP
        assert len(tokens) == 4


class TestSynthetic:
    def test_deterministic_given_seed(self):
        spec = data.SyntheticSpec(seed=5)
        a = data.generate_synthetic(spec)
        b = data.generate_synthetic(spec)
        assert a == b

    def test_sizes_and_rule_consistency(self):
        spec = data.SyntheticSpec(num_labels=8, train_size=200, valid_size=50, test_size=50)
        train, valid, test = data.generate_synthetic(spec)
        assert (len(train), len(valid), len(test)) == (200, 50, 50)
        for record in train + valid + test:
            assert record.labels == rule_labels(record.text, spec)
            assert record.labels  # never empty

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            data.SyntheticSpec(num_labels=10, vocab_size=10)
        with pytest.raises(ConfigError):
            data.SyntheticSpec(bias_pairs=((0, 0, 0.5),))
        with pytest.raises(ConfigError):
            data.SyntheticSpec(bias_pairs=((0, 1, 1.5),))

    def test_bias_pins_conditional_rate(self):
        # counting oracle: over many samples, P(1 present | 0 present) ~ 0.9
        spec = data.SyntheticSpec(num_labels=6, train_size=1000, valid_size=0, test_size=0,
                                  bias_pairs=((0, 1, 0.9),), seed=11)
        train, _, _ = data.generate_synthetic(spec)
        with_source = [r for r in train if "label0" in r.labels]
        rate = sum("label1" in r.labels for r in with_source) / len(with_source)
        assert abs(rate - 0.9) < 0.05

    def test_corpus_assembly(self):
        corpus = data.synthetic_corpus(data.SyntheticSpec(num_labels=4, train_size=30,
                                                          valid_size=5, test_size=5, seed=3))
        assert corpus.label_vocab.size == 4
        assert len(corpus.train) == 30


class TestBatching:
    def small_dataset(self, n=10):
        spec = data.SyntheticSpec(num_labels=3, train_size=n, valid_size=0, test_size=0,
                                  bias_pairs=((0, 1, 0.5),), seed=1)
        return data.synthetic_corpus(spec).train

    def test_batch_sizes(self):
        ds = self.small_dataset(10)
        sizes = [len(b) for b in data.batch_iterator(ds, 4)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        ds = self.small_dataset(10)
        order1 = [s.text for b in data.batch_iterator(ds, 3, np.random.default_rng(7)) for s in b]
        order2 = [s.text for b in data.batch_iterator(ds, 3, np.random.default_rng(7)) for s in b]
        assert order1 == order2
        unshuffled = [s.text for b in data.batch_iterator(ds, 3) for s in b]
        assert unshuffled == [s.text for s in ds]

    def test_masks_mark_exactly_the_padding(self):
        ds = self.small_dataset(8)
        for batch in data.batch_iterator(ds, 4):
            tokens, mask = data.pad_batch([sample.tokens for sample in batch])
            assert tokens.shape[1] == max(len(sample.tokens) for sample in batch)
            for r, sample in enumerate(batch):
                n = sample.tokens.shape[0]
                assert (tokens[r, :n] == sample.tokens).all()
                assert (mask[r, :n] == 1.0).all()
                assert (mask[r, n:] == 0.0).all()
                assert (tokens[r, n:] == PAD).all()

    def test_pad_to_a_given_width(self):
        rows = [np.array([CLS, 5, SEP]), np.array([CLS, SEP])]
        tokens, mask = data.pad_batch(rows, 6)
        assert tokens.shape == mask.shape == (2, 6)
        assert mask.sum(axis=1).tolist() == [3.0, 2.0]
        assert (tokens[0, 3:] == PAD).all() and (tokens[1, 2:] == PAD).all()

    def test_clip_applied_before_padding(self):
        # Model.encode clips each row to max_len, then pads the batch to the
        # longest clipped row
        corpus = data.synthetic_corpus(data.SyntheticSpec(train_size=20, seed=1))
        model = build_model(RunConfig(max_len=7, d_model=8, encoder_heads=2, decoder_heads=2),
                            corpus)
        rows = [sample.tokens for sample in corpus.train.samples[9:15]]
        assert max(map(len, rows)) > 7 > min(map(len, rows))
        with T.no_grad():
            memory = model.encode(rows)
            clipped = model.encode([model.encoder.clip(row) for row in rows])
        assert memory.hidden.shape[:2] == (6, 7)
        assert memory.hidden.data.tobytes() == clipped.hidden.data.tobytes()
        real = (memory.key_bias[:, 0, 0] == 0.0).sum(axis=1)
        assert real.tolist() == [min(len(row), 7) for row in rows]

    def test_batch_size_validated(self):
        with pytest.raises(ContractError):
            next(data.batch_iterator(self.small_dataset(4), 0))
