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
        # 64 eps of the rows' dtype: 7.6e-6 at float32, and 1e-12 at float64
        tolerance = max(1e-12, 64 * float(np.finfo(data.dtype).eps))
        if not (np.abs(np.exp(data).sum(axis=-1) - 1.0) <= tolerance).all():
            raise ContractError("prediction rows must each exponentiate to a sum of 1")

    @property
    def num_queries(self) -> int:
        return self.log_probs.shape[-2]

    @property
    def null_index(self) -> int:
        return self.log_probs.shape[-1] - NULL_OFFSET


class SetDecoder(nn.Module):
    """``num_classes`` is K + 1: the last class is the no-label class.

    The pass splits where it first reads the sentence.  Its prefix, layer
    0's ``TransformerLayer.prefix`` (self-attention over the queries and the
    cross-attention's query projection), reads only the queries and layer
    0's parameters, so without dropout one prefix serves every sentence:
    ``decode`` takes it computed once (``Model.predict_many`` does so per
    call, and keeps it across calls on a checkpoint-loaded model) or
    computes it itself."""

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
               rng: np.random.Generator | None = None,
               prefix: tuple[T.Tensor, T.Tensor] | None = None) -> PredictionSet:
        """Dropout runs when given a Generator.  ``prefix``: what layer 0's
        ``prefix(queries)`` returned, for a pass without dropout."""
        if queries.shape != self.query_shape:
            raise ConfigError(f"queries shaped {queries.shape}, decoder expects {self.query_shape}")
        x = queries
        for layer in self.layers:
            x = layer(x, memory=memory.hidden, memory_bias=memory.key_bias, rng=rng, prefix=prefix)
            prefix = None   # layer 0's
        return PredictionSet(T.log_softmax(self.head(self.final_norm(x))))


def label_sets(chosen: np.ndarray):
    """The indices of the true entries of a (..., K) boolean array: a set
    for one row, else a list of distinct sets in row order."""
    rows = chosen.reshape(-1, chosen.shape[-1])
    sets = [set() for _ in range(len(rows))]
    # one nonzero for all rows: a numpy call per row costs about 7 µs
    for row, label in zip(*(index.tolist() for index in np.nonzero(rows))):
        sets[row].add(label)
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
        return self.readout(T.gather(memory.hidden, (Ellipsis, 0, slice(None))))

    def loss(self, memory: EncodedSentence, gold) -> T.Tensor:
        """Mean binary cross entropy per sentence of ``gold`` label collections
        (one collection for an unbatched memory), recorded as one node in the
        stable form ``max(z, 0) - z·y + log(1 + exp(-|z|))`` of logits z and
        targets y, whose gradient is ``expit(z) - y``."""
        logits = self.logits(memory)
        z = logits.data
        rows = list(gold) if z.ndim > 1 else [gold]
        targets = np.zeros((len(rows), self.num_labels), z.dtype)
        for r, labels in enumerate(rows):
            for label in labels:
                if not 0 <= label < self.num_labels:
                    raise ContractError(f"gold label {label} out of range for K={self.num_labels}")
                targets[r, label] = 1.0
        targets = targets.reshape(z.shape)
        value = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
        return T.custom_op(logits, value, lambda g: g * (_expit(z) - targets)).mean(axis=-1)

    def predict(self, memory: EncodedSentence):
        """Labels whose probability reaches 0.5 (per sentence, as ``label_sets``)."""
        return label_sets(_expit(self.logits(memory).data) >= 0.5)


def _expit(x: np.ndarray) -> np.ndarray:
    """SciPy's logistic function, imported here, not with the module, because
    that import costs about 0.3 s and 40 MiB that set-prediction serving never
    uses."""
    from scipy.special import expit

    return expit(x)
