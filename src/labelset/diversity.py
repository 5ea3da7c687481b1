"""Pairwise-overlap penalty over the decoder's output distributions.

The Bhattacharyya coefficient of two distributions is the sum over classes
of the square root of the product of their probabilities: 1 when they are
identical, 0 when their supports are disjoint.  Summing it over all
unordered distinct pairs of the m slot distributions and weighting it into
the objective presses the slots toward covering different labels, trading
precision for recall.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .decoder import PredictionSet
from .errors import ContractError
from .matching import set_loss

SQRT_FLOOR = 1e-12  # derivative clamp inside the square root


def bhattacharyya_pair(p, q) -> T.Tensor:
    """Overlap coefficient of two probability vectors, in [0, 1]."""
    p, q = T.as_tensor(p), T.as_tensor(q)
    for vec in (p, q):
        if vec.ndim != 1:
            raise ContractError(f"expected probability vectors, got shape {vec.shape}")
        if (vec.data < 0.0).any():
            raise ContractError("probability vector has negative entries")
        if abs(vec.data.sum() - 1.0) > 1e-9:
            raise ContractError(f"probability vector sums to {vec.data.sum()!r}, not 1")
    if p.shape != q.shape:
        raise ContractError(f"length mismatch: {p.shape} vs {q.shape}")
    return T.fsum(T.sqrt_clamped(p * q, SQRT_FLOOR))


def bc_penalty(ps: PredictionSet) -> T.Tensor:
    """Sum of pairwise overlap coefficients over all m(m-1)/2 slot pairs,
    one sum per sentence of a batch."""
    m = ps.num_queries
    if m < 2:
        return T.Tensor(np.zeros(ps.distributions.shape[:-2]))
    left, right = np.triu_indices(m, k=1)
    rows_left = T.gather(ps.distributions, (Ellipsis, left, slice(None)))
    rows_right = T.gather(ps.distributions, (Ellipsis, right, slice(None)))
    return T.fsum(T.sqrt_clamped(rows_left * rows_right, SQRT_FLOOR), axis=(-2, -1))


def total_loss(gold: np.ndarray, ps: PredictionSet, bc_weight: float,
               cost_mode: str = "prob") -> T.Tensor:
    """Assignment loss plus the weighted overlap penalty, per sentence.

    A weight of exactly 0 skips the penalty term entirely, so disabling it
    and weighting it by zero run the identical code path.
    """
    if bc_weight < 0.0:
        raise ContractError(f"penalty weight must be nonnegative, got {bc_weight}")
    loss = set_loss(gold, ps, cost_mode)
    if bc_weight == 0.0:
        return loss
    return loss + bc_penalty(ps) * bc_weight
