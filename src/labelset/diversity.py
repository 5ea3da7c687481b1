"""Pairwise-overlap penalty over the decoder's output distributions, read
from their log-probabilities.

The Bhattacharyya coefficient of two distributions is the sum over classes
of the square root of the product of their probabilities: 1 when they are
identical, 0 when their supports are disjoint.  Summing it over all
unordered distinct pairs of the m slot distributions and weighting it into
the objective presses the slots toward covering different labels, trading
precision for recall.

The coefficient is an inner product of square roots, BC(p, q) = <√p, √q>,
so the sum over pairs factors per class c through S_c = Σ_i √p_ic:

    Σ_{i<j} BC(p_i, p_j) = ½ · Σ_c [S_c² − Σ_i fl(√p_ic)²],

which costs O(mK) instead of O(m²K).  ``bc_penalty`` takes √p = exp(½·log p),
which may underflow to 0 harmlessly.  It sorts each class's roots over the
slots before summing S_c and the squared term, so both sums add the same
values in the same order under any permutation of the slots and no bit
changes; it subtracts the rounded squares rather than Σ_i p_ic, so a class
that only one slot supports adds exactly 0; and it clamps each class term
at 0, where near-disjoint rows could otherwise round the difference below
zero.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as T
from .decoder import PredictionSet
from .errors import ContractError
from .matching import set_loss


def bhattacharyya_pair(p, q) -> T.Tensor:
    """Overlap coefficient of two probability vectors, in [0, 1], as a
    constant: the reference the batched ``bc_penalty`` is checked against."""
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
    return T.Tensor(np.sqrt(p.data * q.data).sum())


def bc_penalty(ps: PredictionSet) -> T.Tensor:
    """Sum of pairwise overlap coefficients over all m(m-1)/2 slot pairs,
    one sum per sentence of a batch, recorded as one tape node.

    The value is ½ · Σ_c max(S_c² − Σ_i fl(√p_ic)², 0) with S_c = Σ_i √p_ic,
    both sums taken over the slots in sorted order, so it is exactly
    non-negative and bit-stable under any permutation of the slots.  The
    gradient is that of the unclamped sum with respect to the
    log-probabilities, ½·√p_ic·(S_c − √p_ic), which is finite everywhere;
    the clamp only removes rounding below zero.
    """
    log_probs = ps.log_probs
    if ps.num_queries < 2:
        return T.Tensor(np.zeros(log_probs.shape[:-2]))
    # float64 even for float32 rows: the penalty and the loss terms added to
    # it stay float64 sums whatever the parameters' dtype
    roots = np.exp(0.5 * log_probs.data.astype(np.float64))
    ordered = np.sort(roots, axis=-2)   # the same array under any slot order
    sums = np.add.reduce(ordered, axis=-2)
    squares = np.add.reduce(ordered * ordered, axis=-2)
    per_class = np.maximum(sums * sums - squares, 0.0)
    value = 0.5 * np.add.reduce(per_class, axis=-1)

    def vjp(g):
        return g[..., None, None] * (0.5 * roots * (sums[..., None, :] - roots))

    return T.custom_op(log_probs, value, vjp)


class Objective(NamedTuple):
    """Per-sentence objective ``total = set_loss + bc_weight · penalty`` and
    its two terms; ``penalty`` is None when the weight is 0."""

    total: T.Tensor
    set_loss: T.Tensor
    penalty: T.Tensor | None


def objective(gold: np.ndarray, ps: PredictionSet, bc_weight: float,
              cost_mode: str = "prob") -> Objective:
    """Assignment loss plus the weighted overlap penalty, per sentence.

    A weight of exactly 0 skips the penalty term entirely, so disabling it
    and weighting it by zero run the identical code path.
    """
    if bc_weight < 0.0:
        raise ContractError(f"penalty weight must be nonnegative, got {bc_weight}")
    loss = set_loss(gold, ps, cost_mode)
    if bc_weight == 0.0:
        return Objective(loss, loss, None)
    penalty = bc_penalty(ps)
    return Objective(loss + penalty * bc_weight, loss, penalty)


def total_loss(gold: np.ndarray, ps: PredictionSet, bc_weight: float,
               cost_mode: str = "prob") -> T.Tensor:
    """The ``total`` of ``objective``."""
    return objective(gold, ps, bc_weight, cost_mode).total
