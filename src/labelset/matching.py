"""Optimal gold-to-slot assignment and the resulting set loss.

Gold label sets are padded with the no-label class up to the slot count m.
The decoder gives each slot's distribution as log-probabilities.  The cost of
putting gold entry i on slot j is the negated probability (or, under the
``log_prob`` cost, log-probability) that slot j gives gold label i, zero for
padded entries.  A minimum-cost permutation is found with one assignment
solve over the real gold rows; the loss then sums negated log-probabilities
along that permutation, every slot included, with the permutation held
constant during backpropagation.

Ties between equally cheap permutations are broken toward the
lexicographically smallest one, so padded entries (whose rows are all zero
cost) land on slots deterministically.  A minimum-cycle certificate on the
row-exchange graph shows when the solve's optimum is unique; only a near-tie
falls back to a row-by-row refinement that re-solves sub-assignments.

SciPy's solver is loaded on the first solve rather than with this module,
since loading it costs about 0.3 s and 40 MiB and serving never matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import tensor as T
from .decoder import PredictionSet
from .errors import ContractError, NumericDomainError

COST_MODES = ("prob", "log_prob")


@dataclass(frozen=True)
class Assignment:
    """slot_for_gold[i] = slot index matched to gold entry i."""

    slot_for_gold: np.ndarray
    total_cost: float

    def __post_init__(self):
        perm = self.slot_for_gold
        if sorted(perm.tolist()) != list(range(perm.shape[0])):
            raise ContractError("assignment is not a permutation")


def pad_gold(labels, num_slots: int, null_index: int) -> np.ndarray:
    """Sorted distinct gold labels followed by no-label padding, length m."""
    given = [int(l) for l in labels]
    distinct = sorted(set(given))
    if len(distinct) != len(given):
        raise ContractError("gold label set contains duplicates")
    if len(distinct) > num_slots:
        raise ContractError(f"{len(distinct)} gold labels exceed {num_slots} slots")
    if distinct and (distinct[0] < 0 or distinct[-1] >= null_index):
        raise ContractError(f"gold label out of range 0..{null_index - 1}")
    return np.array(distinct + [null_index] * (num_slots - len(distinct)), dtype=np.intp)


def match_cost(gold: np.ndarray, log_probs: np.ndarray, cost_mode: str = "prob") -> np.ndarray:
    """cost[i][j]: putting gold entry i on slot j, from (m, K+1) slot
    log-probabilities.  Padded entries cost 0 anywhere; real entries cost
    the negated probability, or the negated log-probability under
    ``log_prob``."""
    if cost_mode not in COST_MODES:
        raise ContractError(f"cost_mode must be one of {COST_MODES}, got {cost_mode!r}")
    num_slots, num_classes = log_probs.shape
    null_index = num_classes - 1
    gold = np.asarray(gold, dtype=np.intp)
    if gold.shape != (num_slots,):
        raise ContractError(f"gold length {gold.shape} does not match {num_slots} slots")
    if gold.min() < 0 or gold.max() > null_index:
        raise ContractError(f"gold label out of range 0..{null_index}")
    cost = np.zeros((num_slots, num_slots), dtype=np.float64)
    real = gold != null_index
    picked = log_probs[:, gold[real]].T  # (num real golds, num_slots)
    cost[real] = -picked if cost_mode == "log_prob" else -np.exp(picked)
    return cost


# Two assignments whose totals differ by less than this (scaled) are the
# same mathematical optimum seen through different float summation orders;
# both the solver and the exhaustive oracle break such ties toward the
# lexicographically smallest permutation so their outputs agree bitwise.
TIE_TOLERANCE = 1e-11


def _tie_band(total: float) -> float:
    return TIE_TOLERANCE * (1.0 + abs(total))


def linear_sum_assignment(cost: np.ndarray):
    """SciPy's rectangular assignment solver, imported at call time."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _solve_min_cost(cost: np.ndarray) -> float:
    if cost.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-total-cost permutation; lexicographically smallest on ties.

    One rectangular assignment solve places the rows that are not all zero
    (the no-label padding rows are interchangeable).  Any other placement
    differs from it by cycles in the row-exchange graph, each weighing at
    least the graph's minimum cycle; if that minimum clears twice the tie
    band, the optimum is unique up to the zero rows, which then take the
    unused columns in ascending order.  Otherwise ``_refine`` breaks the
    near-tie.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ContractError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise NumericDomainError("cost matrix contains NaN or Inf")
    m = cost.shape[0]
    zero = ~cost.any(axis=1)
    real = np.flatnonzero(~zero)
    chosen = np.empty(m, dtype=np.intp)
    unused = np.ones(m, dtype=bool)
    if real.size:
        k, c = real.size, cost[real]
        _, sigma = linear_sum_assignment(c)
        unused[sigma] = False
        # exchange graph over the real rows plus one node for the unused
        # columns: i -> j takes sigma(j), i -> free the cheapest unused column
        # (a lower bound), free -> j releases sigma(j) at no cost
        own = c[np.arange(k), sigma]
        dist = np.zeros((k + 1, k + 1))
        dist[:k, :k] = c[:, sigma] - own[:, None]
        dist[:k, k] = c[:, unused].min(axis=1) - own if unused.any() else np.inf
        np.fill_diagonal(dist, np.inf)
        for v in range(k + 1):
            np.minimum(dist, dist[:, v : v + 1] + dist[v], out=dist)
        if dist.diagonal().min() <= 2 * _tie_band(float(own.sum())):
            return _refine(cost)
        chosen[real] = sigma
    chosen[zero] = np.flatnonzero(unused)
    return Assignment(slot_for_gold=chosen, total_cost=float(cost[np.arange(m), chosen].sum()))


def _refine(cost: np.ndarray) -> Assignment:
    """Lexicographically smallest optimum by one pass over the rows that
    fixes each row to its smallest column index still compatible with the
    optimal total (within a tolerance that only absorbs float noise)."""
    m = cost.shape[0]
    best_total = _solve_min_cost(cost)
    tolerance = _tie_band(best_total)
    free = list(range(m))
    chosen = np.empty(m, dtype=np.intp)
    prefix = 0.0
    for i in range(m):
        remaining_rows = np.arange(i + 1, m)
        for position, j in enumerate(free):
            rest = free[:position] + free[position + 1 :]
            completion = _solve_min_cost(cost[np.ix_(remaining_rows, rest)])
            if prefix + cost[i, j] + completion <= best_total + tolerance:
                chosen[i] = j
                prefix += cost[i, j]
                free.pop(position)
                break
        else:
            raise ContractError("assignment refinement failed to place a row")
    return Assignment(slot_for_gold=chosen, total_cost=float(cost[np.arange(m), chosen].sum()))


@lru_cache(maxsize=16)
def _all_permutations(m: int) -> np.ndarray:
    return np.array(list(permutations(range(m))), dtype=np.intp)


def exhaustive_assignment(cost: np.ndarray) -> Assignment:
    """Test oracle: enumerate every permutation, pick the cheapest total,
    lexicographically smallest within the shared tie band.  Factorial time;
    m <= 8."""
    cost = np.asarray(cost, dtype=np.float64)
    m = cost.shape[0]
    if m > 8:
        raise ContractError(f"exhaustive search capped at 8 slots, got {m}")
    perms = _all_permutations(m)
    totals = cost[np.arange(m), perms].sum(axis=1)
    cheapest = float(totals.min())
    # permutations enumerate in lexicographic order, so the first total
    # inside the band belongs to the lexicographically smallest tied perm
    winner = int(np.flatnonzero(totals <= cheapest + _tie_band(cheapest))[0])
    perm = perms[winner].copy()
    return Assignment(slot_for_gold=perm, total_cost=float(cost[np.arange(m), perm].sum()))


def set_loss(gold: np.ndarray, ps: PredictionSet, cost_mode: str = "prob") -> T.Tensor:
    """Negated log-probability of gold under the optimal assignment.

    All m slots contribute, padded ones through their no-label probability.
    The assignment is computed on current forward values and then frozen, so
    gradients flow only through the picked log-probabilities.  A batch with
    a gold row per sentence gives one loss per sentence.
    """
    log_probs = ps.log_probs
    gold = np.asarray(gold, dtype=np.intp)
    if gold.shape != log_probs.shape[:-1]:
        raise ContractError(f"gold shaped {gold.shape} does not match "
                            f"predictions {log_probs.shape}")
    rows = log_probs.data.reshape((-1,) + log_probs.shape[-2:])
    slots = np.stack([hungarian(match_cost(g, p, cost_mode)).slot_for_gold
                      for g, p in zip(gold.reshape(-1, gold.shape[-1]), rows)]).reshape(gold.shape)
    batch_index = tuple(np.indices(gold.shape, sparse=True)[:-1])
    return -(T.gather(log_probs, batch_index + (slots, gold)).sum(axis=-1))
