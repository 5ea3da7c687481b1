"""Non-autoregressive set decoder and the independent-sigmoid baseline head.

The decoder receives m query embeddings and the encoded sentence (or a
batch of them, which the queries broadcast against), runs them through
transformer blocks (self-attention across queries, cross-attention into the
sentence), and reads out one distribution over the K labels plus a reserved
no-label class per query, as log-probabilities, all in a single parallel
pass.  Queries carry no positional encoding, so permuting them permutes the
outputs and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import nn, tensor as T
from .encoder import EncodedSentence
from .errors import ConfigError, ContractError

NULL_OFFSET = 1  # the no-label class sits at index K, one past the labels


@dataclass
class PredictionSet:
    """m rows of label log-probabilities, one per query slot (per sentence)."""

    log_probs: T.Tensor  # (..., m, K+1)

    def __post_init__(self):
        data = self.log_probs.data
        if data.ndim < 2:
            raise ContractError(f"prediction set needs (..., m, K+1) rows, got shape {data.shape}")
        if not (np.abs(np.exp(data).sum(axis=-1) - 1.0) <= 1e-12).all():
            raise ContractError("prediction rows must each exponentiate to a sum of 1")

    @property
    def num_queries(self) -> int:
        return self.log_probs.shape[-2]

    @property
    def null_index(self) -> int:
        return self.log_probs.shape[-1] - NULL_OFFSET


class SetDecoder(nn.Module):
    """``num_classes`` is K + 1: the last class is the no-label class."""

    def __init__(self, rng: np.random.Generator, num_queries: int, num_classes: int,
                 d_model: int, num_layers: int, num_heads: int, dropout: float = 0.0):
        super().__init__()
        self.query_shape = (num_queries, d_model)
        self.layers = []
        for i in range(num_layers):
            layer = nn.TransformerLayer(rng, d_model, num_heads, dropout=dropout, cross=True)
            self.layers.append(self.add_child(f"layer{i}", layer))
        self.final_norm = self.add_child("final_norm", nn.LayerNorm(d_model))
        self.head = self.add_child("head", nn.Linear(rng, d_model, num_classes))

    def decode(self, queries: T.Tensor, memory: EncodedSentence,
               rng: np.random.Generator | None = None, train: bool = False) -> PredictionSet:
        if queries.shape != self.query_shape:
            raise ConfigError(f"queries shaped {queries.shape}, decoder expects {self.query_shape}")
        memory_bias = nn.mask_to_bias(memory.attention_mask)
        x = queries
        for layer in self.layers:
            x = layer(x, memory=memory.hidden, memory_bias=memory_bias, rng=rng, train=train)
        return PredictionSet(T.log_softmax(self.head(self.final_norm(x))))


def label_sets(chosen: np.ndarray):
    """The indices of the true entries of a (..., K) boolean array: a set
    for one row, else a list of sets in row order."""
    sets = [set(np.flatnonzero(row).tolist()) for row in chosen.reshape(-1, chosen.shape[-1])]
    return sets if chosen.ndim > 1 else sets[0]


def predict_labels(ps: PredictionSet):
    """Argmax each row, drop rows that chose the no-label class, deduplicate
    (per sentence, as ``label_sets``)."""
    winners = ps.log_probs.data.argmax(axis=-1)
    return label_sets((winners[..., None] == np.arange(ps.null_index)).any(axis=-2))


class BceHead(nn.Module):
    """Baseline: K independent sigmoid probabilities read off the CLS vector."""

    def __init__(self, rng: np.random.Generator, d_model: int, num_labels: int):
        super().__init__()
        self.num_labels = num_labels
        self.readout = self.add_child("readout", nn.Linear(rng, d_model, num_labels))

    def logits(self, memory: EncodedSentence) -> T.Tensor:
        cls_state = T.gather(memory.hidden, (Ellipsis, [0], slice(None)))
        return self.readout(cls_state).reshape(memory.hidden.shape[:-2] + (self.num_labels,))

    def loss(self, memory: EncodedSentence, gold) -> T.Tensor:
        """Mean binary cross entropy per sentence of ``gold`` label collections
        (one collection for an unbatched memory)."""
        lead = memory.hidden.shape[:-2]
        rows = list(gold) if lead else [gold]
        multi_hot = np.zeros((len(rows), self.num_labels))
        for r, labels in enumerate(rows):
            for label in labels:
                if not 0 <= label < self.num_labels:
                    raise ContractError(f"gold label {label} out of range for K={self.num_labels}")
                multi_hot[r, label] = 1.0
        targets = multi_hot.reshape(lead + (self.num_labels,))
        return T.bce_with_logits(self.logits(memory), targets).mean(axis=-1)

    def predict(self, memory: EncodedSentence):
        """Labels whose probability reaches 0.5 (per sentence, as ``label_sets``)."""
        return label_sets(expit(self.logits(memory).data) >= 0.5)
