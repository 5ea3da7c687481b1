"""Label co-occurrence graph and graph-convolution query construction.

Pipeline: count pairwise label co-occurrence over the training split (set
semantics, once per sample), turn counts into row-conditional probabilities,
threshold and reweight into a stochastic adjacency whose rows sum to 1, add
self-loops, symmetrically normalize by degree, and propagate a learnable
node-feature table through that fixed matrix.  A final m-by-K projection
turns the K node vectors into the m decoder query embeddings.

The reweighted adjacency is generally asymmetric (conditional probabilities
are), and the degree normalization is applied to it as-is.
"""

from __future__ import annotations

import numpy as np

from . import nn, tensor as T
from .data import Dataset, LabelVocabulary
from .errors import ConfigError, ContractError, GraphConstructionError


def build_counts(train: Dataset, vocab: LabelVocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Co-occurrence counts over training samples.

    counts[i][j] = number of samples whose gold set contains both i and j
    (i != j); occurrences[i] = number containing i; counts[i][i] mirrors
    occurrences[i] by convention.
    """
    if len(train) == 0:
        raise GraphConstructionError("cannot build a label graph from an empty training set")
    k = vocab.size
    membership = np.zeros((len(train), k), dtype=np.int64)
    for row, sample in enumerate(train):
        labels = sample.labels
        if len(set(labels)) != len(labels):
            raise ContractError("duplicate labels within one sample")
        for a in labels:
            if not 0 <= a < k:
                raise ContractError(f"label index {a} out of range for K={k}")
        membership[row, list(labels)] = 1
    counts = membership.T @ membership
    return counts, np.diag(counts).copy()


def conditional_probabilities(counts: np.ndarray, occurrences: np.ndarray) -> np.ndarray:
    """cond[i][j] = counts[i][j] / occurrences[i], 0 when label i never occurs;
    diagonal fixed at 0."""
    k = counts.shape[0]
    cond = np.zeros((k, k), dtype=np.float64)
    nonzero = occurrences > 0
    cond[nonzero] = counts[nonzero] / occurrences[nonzero, None]
    np.fill_diagonal(cond, 0.0)
    return cond


def threshold_and_reweight(cond: np.ndarray, tau: float, p_neighbor: float) -> np.ndarray:
    """Drop edges below tau, then split each row's mass: p_neighbor spread
    over surviving neighbors proportionally to their weights, 1 - p_neighbor
    on self.  Rows with no surviving neighbor become pure self-loops.
    Every row sums to exactly 1."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be in [0, 1], got {tau}")
    if not 0.0 < p_neighbor < 1.0:
        raise ConfigError(f"neighbor mass must be in (0, 1), got {p_neighbor}")
    adjacency = np.where(cond >= tau, cond, 0.0)
    np.fill_diagonal(adjacency, 0.0)
    row_sums = adjacency.sum(axis=1)
    has = row_sums > 0.0
    out = np.zeros_like(adjacency)
    out[has] = p_neighbor * adjacency[has] / row_sums[has, None]
    np.fill_diagonal(out, np.where(has, 1.0 - p_neighbor, 1.0))
    return out


def normalized_propagation(reweighted: np.ndarray) -> np.ndarray:
    """Degree-normalized propagation matrix with self-loops added:
    D^{-1/2} (A + I) D^{-1/2} where D is the row-sum degree of A + I."""
    with_loops = reweighted + np.eye(reweighted.shape[0])
    inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
    return inv_sqrt_degree[:, None] * with_loops * inv_sqrt_degree[None, :]


class LabelGraph:
    """All graph matrices for one training split, plus the dump format."""

    def __init__(self, train: Dataset, vocab: LabelVocabulary, tau: float, p_neighbor: float):
        self.num_labels = vocab.size
        self.counts, self.occurrences = build_counts(train, vocab)
        self.cond_prob = conditional_probabilities(self.counts, self.occurrences)
        self.reweighted = threshold_and_reweight(self.cond_prob, tau, p_neighbor)
        self.propagation = normalized_propagation(self.reweighted)

    @property
    def edge_count(self) -> int:
        off_diag = self.reweighted.copy()
        np.fill_diagonal(off_diag, 0.0)
        return int((off_diag > 0.0).sum())

    @property
    def isolated_labels(self) -> list[int]:
        diag = np.diag(self.reweighted)
        return [i for i in range(self.num_labels) if diag[i] == 1.0]


def dump_matrix(path, matrix: np.ndarray) -> None:
    """Text dump: one header line with K, then K rows of K floats."""
    k = matrix.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{k}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


class GcnStack(nn.Module):
    """Learnable node features pushed through fixed graph propagation.

    Each layer is ``act(Â·H·W)``: two ``linear`` nodes, then the activation.
    Â, the propagation matrix, is a constant numpy array in the parameters'
    dtype, so ``linear`` computes no gradient product for it; gradients
    reach only the node table and the layer weights.
    """

    def __init__(self, rng: np.random.Generator, propagation: np.ndarray,
                 num_layers: int, width: int, activation: str = "relu"):
        super().__init__()
        if num_layers < 1:
            raise ConfigError("GCN needs at least one layer")
        if activation not in ("relu", "leaky_relu"):
            raise ConfigError(f"unsupported GCN activation {activation!r}")
        self.activation = activation
        k = len(propagation)
        # node features are inputs, not a weight matrix: unit-bound init so
        # the produced queries match the scale of a plain learnable table
        self.node_features = self.register("node_features", nn.uniform_init(rng, 1, (k, width)))
        self.layer_weights = [
            self.register(f"layer_weight{i}", nn.uniform_init(rng, width, (width, width)))
            for i in range(num_layers)
        ]
        # a read-only copy: a constant, which serving may read once for many calls
        self.propagation = np.array(propagation, dtype=self.node_features.data.dtype)
        self.propagation.flags.writeable = False

    def __call__(self) -> T.Tensor:
        slope = 0.0 if self.activation == "relu" else 0.01
        h = self.node_features
        for weight in self.layer_weights:
            h = T.leaky_relu(T.linear(T.linear(self.propagation, h), weight), slope)
        return h


class QueryProjection(nn.Module):
    """Mixes the K propagated node vectors into m decoder query embeddings."""

    def __init__(self, rng: np.random.Generator, num_queries: int, num_labels: int):
        super().__init__()
        self.weight = self.register("weight", nn.uniform_init(rng, num_labels, (num_queries, num_labels)))

    def __call__(self, node_states: T.Tensor) -> T.Tensor:
        return T.linear(self.weight, node_states)
