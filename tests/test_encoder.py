"""Tokenizer, vocabulary, and encoder contracts."""

import numpy as np
import numpy.testing as npt
import pytest

from labelset import encoder as enc
from labelset import tensor as T
from labelset.errors import ContractError, VocabularyError


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


class TestTokenizer:
    def test_lowercase_whitespace_split(self):
        assert enc.tokenize("Add SONG\tto  Playlist") == ["add", "song", "to", "playlist"]

    def test_vocabulary_reserves_specials_and_first_occurrence(self):
        vocab = enc.TokenVocabulary.build(["b a", "c a"])
        assert vocab.size == 7
        npt.assert_array_equal(vocab.encode("b a c zzz"), [enc.CLS, 4, 5, 6, enc.OOV, enc.SEP])

    def test_encode_wraps_with_cls_sep(self):
        vocab = enc.TokenVocabulary.build(["hello world"])
        ids = vocab.encode("hello unknown")
        assert ids[0] == enc.CLS and ids[-1] == enc.SEP
        assert ids[2] == enc.OOV

    def test_special_names_in_training_text_are_ordinary_words(self):
        vocab = enc.TokenVocabulary.build(["a <sep> b", "<PAD> <cls> <oov> c"])
        assert vocab.to_list() == ["<pad>", "<cls>", "<sep>", "<oov>", "a", "b", "c"]

    def test_special_names_encode_as_oov(self):
        vocab = enc.TokenVocabulary.build(["a b"])
        ids = vocab.encode("a <sep> <CLS> <pad> <oov> b")
        npt.assert_array_equal(ids, [enc.CLS, 4, enc.OOV, enc.OOV, enc.OOV, enc.OOV, 5, enc.SEP])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(VocabularyError):
            enc.TokenVocabulary(["a", "b", "a"])
        with pytest.raises(VocabularyError):
            enc.TokenVocabulary(["<sep>"])


def small_encoder(seed=0):
    return enc.TransformerEncoder(np.random.default_rng(seed), vocab_size=12, d_model=8,
                                  num_layers=1, num_heads=2, max_len=10)


class TestEncode:
    def test_minimal_sequence_shape(self):
        model = small_encoder()
        out = model.encode(np.array([enc.CLS, enc.SEP]))
        assert out.hidden.shape == (2, 8)

    def test_determinism_across_calls(self):
        model = small_encoder()
        ids = np.array([enc.CLS, 5, 6, enc.SEP])
        with T.no_grad():
            a = model.encode(ids).hidden.data
            b = model.encode(ids).hidden.data
        assert a.tobytes() == b.tobytes()

    def test_truncation_counted_and_bounded(self):
        model = small_encoder()
        ids = np.array([enc.CLS] + [4] * 13 + [enc.SEP])  # max_len + 5
        assert ids.shape[0] == 15
        out = model.encode(ids)
        assert out.hidden.shape[0] == model.max_len
        assert model.truncation_count == 1
        # clip keeps CLS at the front and SEP at the end
        clipped = model.clip(ids)
        assert clipped[0] == enc.CLS and clipped[-1] == enc.SEP

    def test_out_of_range_token_rejected(self):
        model = small_encoder()
        with pytest.raises(VocabularyError):
            model.encode(np.array([enc.CLS, 99, enc.SEP]))

    def test_missing_specials_rejected(self):
        model = small_encoder()
        with pytest.raises(ContractError):
            model.encode(np.array([4, 5, enc.SEP]))
        with pytest.raises(ContractError):
            model.encode(np.array([enc.CLS, 5, 6]))

    def test_padded_equals_trimmed_bitwise(self):
        model = small_encoder()
        ids = np.array([enc.CLS, 4, 5, enc.SEP])
        padded = np.concatenate([ids, [enc.PAD] * 3])
        mask = np.array([1.0] * 4 + [0.0] * 3)
        with T.no_grad():
            trimmed = model.encode(ids).hidden.data
            wide = model.encode(padded, attention_mask=mask).hidden.data
        assert wide[:4].tobytes() == trimmed.tobytes()

    def test_padding_tail_content_is_irrelevant(self):
        model = small_encoder()
        base = np.array([enc.CLS, 4, enc.SEP, enc.PAD, enc.PAD])
        swapped = np.array([enc.CLS, 4, enc.SEP, 7, 9])  # junk in masked tail
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        with T.no_grad():
            a = model.encode(base, attention_mask=mask).hidden.data
            b = model.encode(swapped, attention_mask=mask).hidden.data
        assert a[:3].tobytes() == b[:3].tobytes()

    def test_gradients_reach_embeddings_but_not_padding_rows(self):
        model = small_encoder()
        ids = np.array([enc.CLS, 4, enc.SEP, enc.PAD])
        mask = np.array([1.0, 1.0, 1.0, 0.0])
        out = model.encode(ids, attention_mask=mask)
        T.backward(out.hidden.sum())
        grad = model.token_embed.grad
        assert np.abs(grad[4]).sum() > 0
        # PAD row received gradient only through its own masked position's
        # residual path; attention from real positions contributes nothing.
        assert np.abs(grad[enc.CLS]).sum() > 0
