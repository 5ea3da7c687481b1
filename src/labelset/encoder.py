"""Sentence encoder: whitespace tokenizer plus a small trainable transformer.

The encoder maps a token-id sequence (CLS ... SEP, right-padded), or a
(B, L) batch of them, to one contextual vector per position.  Padding
positions are masked out of attention with a large negative bias, which
drives their weights to exactly zero, so padding never changes what a real
position attends to.  It can still change the last bit: the wider matrix
products sum their terms in another order.  Rows batched with others of
their own length, unpadded, encode bit for bit as they do alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .errors import ContractError, VocabularyError

PAD, CLS, SEP, OOV = 0, 1, 2, 3
_SPECIALS = ("<pad>", "<cls>", "<sep>", "<oov>")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace."""
    return text.lower().split()


class TokenVocabulary:
    """Token-to-index map with four reserved leading slots.

    Indices 0..3 are PAD, CLS, SEP, OOV in that order; corpus tokens follow
    in first-occurrence order, which makes rebuilds from the same split
    reproducible.  The reserved names are never looked up: a text that
    spells "<sep>" holds an unknown word, not a separator.
    """

    def __init__(self, tokens: list[str]):
        self._names = list(_SPECIALS) + list(tokens)
        self._index = {name: i for i, name in enumerate(self._names) if i >= len(_SPECIALS)}
        if len(set(self._names)) != len(self._names):
            raise VocabularyError("vocabulary contains duplicate tokens")

    @classmethod
    def build(cls, texts) -> "TokenVocabulary":
        seen: dict[str, None] = {}
        for text in texts:
            for token in tokenize(text):
                seen.setdefault(token, None)
        return cls([token for token in seen if token not in _SPECIALS])

    @property
    def size(self) -> int:
        return len(self._names)

    def encode(self, text: str) -> np.ndarray:
        """Token ids wrapped in CLS ... SEP; unknown tokens map to OOV."""
        body = [self._index.get(tok, OOV) for tok in tokenize(text)]
        return np.array([CLS] + body + [SEP], dtype=np.intp)

    def to_list(self) -> list[str]:
        return list(self._names)


@dataclass
class EncodedSentence:
    hidden: T.Tensor          # (..., l, d_model)
    attention_mask: np.ndarray  # (..., l) of {0., 1.}


class TransformerEncoder(nn.Module):
    """Token + position embeddings, pre-norm self-attention blocks, final norm."""

    def __init__(self, rng: np.random.Generator, vocab_size: int, d_model: int,
                 num_layers: int, num_heads: int, max_len: int, dropout: float = 0.0):
        super().__init__()
        self.vocab_size = vocab_size
        self.max_len = max_len
        d = d_model
        self.token_embed = self.register("token_embed", nn.uniform_init(rng, d, (vocab_size, d)))
        self.pos_embed = self.register("pos_embed", nn.uniform_init(rng, d, (max_len, d)))
        self.layers = []
        for i in range(num_layers):
            layer = nn.TransformerLayer(rng, d, num_heads, dropout=dropout)
            self.layers.append(self.add_child(f"layer{i}", layer))
        self.final_norm = self.add_child("final_norm", nn.LayerNorm(d))

    def clip(self, tokens: np.ndarray) -> np.ndarray:
        """Right-truncate an over-length sequence, keeping CLS and SEP."""
        tokens = np.asarray(tokens, dtype=np.intp)
        if tokens.shape[-1] <= self.max_len:
            return tokens
        if tokens.ndim != 1:
            raise ContractError("clip batch rows before padding them to one width")
        return np.concatenate([tokens[: self.max_len - 1], tokens[-1:]])

    def encode(self, tokens: np.ndarray, attention_mask: np.ndarray | None = None,
               rng: np.random.Generator | None = None, train: bool = False) -> EncodedSentence:
        """Encode an (L,) token row or a (B, L) batch with its (B, L) mask."""
        tokens = self.clip(tokens)
        length = tokens.shape[-1]
        if attention_mask is None:
            attention_mask = np.ones(tokens.shape, dtype=np.float64)
        else:
            attention_mask = np.asarray(attention_mask, dtype=np.float64)[..., :length]
        if tokens.min() < 0 or tokens.max() >= self.vocab_size:
            raise VocabularyError(f"token id out of range for vocabulary of {self.vocab_size}")
        real = attention_mask.sum(axis=-1).astype(np.intp)
        if (real < 2).any() or (tokens[..., 0] != CLS).any() or \
                (np.take_along_axis(tokens, real[..., None] - 1, axis=-1) != SEP).any():
            raise ContractError("encoder input must start with CLS and end with SEP")
        x = T.gather(self.token_embed, tokens) + T.gather(self.pos_embed, np.arange(length))
        bias = nn.mask_to_bias(attention_mask)
        for layer in self.layers:
            x = layer(x, self_bias=bias, rng=rng, train=train)
        return EncodedSentence(hidden=self.final_norm(x), attention_mask=attention_mask)
