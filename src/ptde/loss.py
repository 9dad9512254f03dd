"""Ranking objective over per-segment score lists.

For one (positive bag, negative bag) pair the objective is

    max(0, 1 - max(pos) + max(neg))
        + lambda1 * sum_i (pos_i - pos_{i+1})^2
        + lambda2 * sum_i pos_i

The hinge compares bag maxima (the best-scoring instance stands in for the
bag), the squared-difference term keeps consecutive positive-bag scores
smooth, and the plain sum keeps them sparse. Both regularizers act on the
positive bag only.

A batch of pairs is two flat score lists plus the first index of each bag
(`pos_starts`, `neg_starts`); the terms are then summed over the pairs.

The value and its gradient read one pass of pair terms (checked sides, bag
maxima, margins, smoothness differences), so they cannot drift apart.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBag, EmptyBatch, NegativeLambda


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the pair objective.

    `smoothness` and `sparsity` are stored already weighted by their
    lambdas, so total = hinge + smoothness + sparsity.
    """

    hinge: float
    smoothness: float
    sparsity: float
    total: float


def _validate_bag(scores, name: str) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"{name} scores must be a flat list, got shape {scores.shape}")
    if scores.size == 0:
        raise EmptyBag(f"{name} bag has no segment scores")
    return scores


def _side(scores, starts, name: str):
    """(scores, starts, bag maxima) of one side; a side without starts is one bag."""
    starts = np.zeros(1, dtype=np.intp) if starts is None else np.asarray(starts)
    if starts.size == 0:
        raise EmptyBatch("batch contains no bag pairs")
    scores = _validate_bag(scores, name)
    if starts.ndim != 1 or starts.dtype.kind not in "iu" or starts[0] != 0:
        raise ValueError(f"{name} starts must be a flat list of integers from 0")
    if np.any(np.diff(starts, append=scores.size) <= 0):
        raise EmptyBag(f"{name} starts give a bag with no segment scores")
    return scores, starts, np.maximum.reduceat(scores, starts)


def _pair_terms(pos_scores, neg_scores, lambda1, lambda2, pos_starts, neg_starts):
    """Check both sides, the pair counts and the lambdas; return the sides as
    `_side` gives them, each pair's margin 1 - max(pos) + max(neg), and the
    differences pos[i] - pos[i + 1], zero where row i + 1 starts a bag."""
    pos, ps, pmax = _side(pos_scores, pos_starts, "positive")
    neg, ns, nmax = _side(neg_scores, neg_starts, "negative")
    if ps.size != ns.size:
        raise ValueError(f"{ps.size} positive bags but {ns.size} negative bags")
    if lambda1 < 0 or lambda2 < 0:
        raise NegativeLambda(f"lambdas must be >= 0, got {lambda1} and {lambda2}")
    d = pos[:-1] - pos[1:]
    d[ps[1:] - 1] = 0.0
    return (pos, ps, pmax), (neg, ns, nmax), 1.0 - pmax + nmax, d


def _first_max(scores, starts, maxima) -> np.ndarray:
    """Per bag, the lowest index at the bag maximum; scores.size if that is NaN."""
    rows = np.arange(scores.size)
    at_max = scores == np.repeat(maxima, np.diff(starts, append=scores.size))
    return np.minimum.reduceat(np.where(at_max, rows, scores.size), starts)


def mil_ranking_loss(
    pos_scores, neg_scores, lambda1: float, lambda2: float, pos_starts=None, neg_starts=None
) -> LossBreakdown:
    """Evaluate the pair objective, summed over bag pairs.

    Without starts each score list is one bag. With starts, pair k's bags
    begin at pos_starts[k] and neg_starts[k] of the flat score lists and end
    where the next bag begins. A NaN score makes every term it reaches NaN,
    the hinge included.
    """
    (pos, _, _), _, margin, d = _pair_terms(
        pos_scores, neg_scores, lambda1, lambda2, pos_starts, neg_starts
    )
    hinge = float(np.sum(np.maximum(margin, 0.0)))
    smoothness = lambda1 * float(np.sum(d * d))
    sparsity = lambda2 * float(np.sum(pos))
    return LossBreakdown(
        hinge=hinge,
        smoothness=smoothness,
        sparsity=sparsity,
        total=hinge + smoothness + sparsity,
    )


def loss_score_gradients(
    pos_scores, neg_scores, lambda1: float, lambda2: float, pos_starts=None, neg_starts=None
):
    """Exact gradient of the (summed) pair objective with respect to every
    score; bags are given as in mil_ranking_loss.

    Subgradient conventions: the hinge contributes nothing when the margin
    is exactly met, and bag maxima resolve argmax ties to the lowest
    segment index.
    """
    (pos, ps, pmax), (neg, ns, nmax), margin, d = _pair_terms(
        pos_scores, neg_scores, lambda1, lambda2, pos_starts, neg_starts
    )
    dpos = np.full(pos.shape, lambda2, dtype=np.float64)
    dpos[:-1] += 2.0 * lambda1 * d
    dpos[1:] -= 2.0 * lambda1 * d
    dneg = np.zeros(neg.shape, dtype=np.float64)
    # a NaN margin is not > 0, so a NaN bag never reaches its argmax
    active = margin > 0.0
    dpos[_first_max(pos, ps, pmax)[active]] -= 1.0
    dneg[_first_max(neg, ns, nmax)[active]] += 1.0
    return dpos, dneg


def ranking_satisfied(pos_scores, neg_scores) -> bool:
    """True iff the positive bag's best score strictly beats the negative's."""
    pos = _validate_bag(pos_scores, "positive")
    neg = _validate_bag(neg_scores, "negative")
    return bool(np.max(pos) > np.max(neg))
