"""Three-layer feedforward scoring head with hand-derived gradients.

The head maps a segment embedding to a theft confidence in (0, 1):

    sigmoid(w3 . relu(w2 . relu(w1 . x + b1) + b2) + b3)

Hidden widths are 512 and 32. Gradients of the pair ranking objective are
computed analytically; no autodiff framework is involved. A training epoch
is one `backprop` call over its distinct bags: the forward pass runs once
per bag however many pairs use it, and the backward pass runs only over
rows whose score gradient is non-zero.

When BLAS runs one thread, a layer-1 product of at least
SPLIT_MULTIPLY_ADDS multiply-adds (about 64 rows at 4150-d, 2,200 at
118-d) runs as two halves on the calling thread and a helper thread of
`ptde.parallel`: x @ w1 by rows, x.T @ dz1 by columns of dw1. The cut
depends on the shapes alone and each half gives bitwise the rows or columns
of the whole product, so results are identical for any core count. They
still depend on the BLAS thread count, since OpenBLAS sums a product in
another order at two threads.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch
from .loss import loss_score_gradients, mil_ranking_loss
from .parallel import ONE_BLAS_THREAD, run_pieces

HIDDEN1 = 512
HIDDEN2 = 32
OUTPUT = 1
# the size from which a layer-1 product runs as two halves (module docstring)
SPLIT_MULTIPLY_ADDS = 1 << 27


@dataclass
class ScoringHead:
    """Parameters of the scorer, or gradients and Adagrad accumulators of
    the same shapes. Weight matrices are (fan_in, fan_out)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def layer_dims(self) -> tuple[int, int, int]:
        return (self.w1.shape[1], self.w2.shape[1], self.w3.shape[1])

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


def init_head(input_dim: int, seed: int) -> ScoringHead:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    The uniform bound sqrt(6 / (fan_in + fan_out)) keeps pre-activations
    small enough that the sigmoid output starts near 0.5.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    rng = np.random.default_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return ScoringHead(
        w1=glorot(input_dim, HIDDEN1),
        b1=np.zeros(HIDDEN1),
        w2=glorot(HIDDEN1, HIDDEN2),
        b2=np.zeros(HIDDEN2),
        w3=glorot(HIDDEN2, OUTPUT),
        b3=np.zeros(OUTPUT),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # split by sign so exp never overflows
    out = np.empty_like(z)
    nonneg = z >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-z[nonneg]))
    ez = np.exp(z[~nonneg])
    out[~nonneg] = ez / (1.0 + ez)
    return out


def _activate(z: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """relu(z + bias), in place in z."""
    z += bias
    return np.maximum(z, 0.0, out=z)


def _upper(head: ScoringHead, h1: np.ndarray):
    """(h2, scores) from layer 1's activations."""
    h2 = _activate(h1 @ head.w2, head.b2)
    z3 = h2 @ head.w3 + head.b3
    return h2, _sigmoid(z3[:, 0])


def _halves(n: int, multiply_adds: int) -> list[tuple[int, int]]:
    """range(n) as one piece, or as two halves for a product of at least
    SPLIT_MULTIPLY_ADDS multiply-adds when BLAS runs one thread. The cut
    depends on the shapes only, never on the core count."""
    if multiply_adds < SPLIT_MULTIPLY_ADDS or not ONE_BLAS_THREAD:
        return [(0, n)]
    return [(0, n // 2), (n // 2, n)]


def _forward(head: ScoringHead, x: np.ndarray):
    """(h1, h2, scores) for the rows of x; ReLU is applied in place.

    Layer 1 may run as two row halves (see `_halves`): a row of OpenBLAS's
    gemm does not depend on the other rows of the product, so h1 is bitwise
    the whole product's.
    """
    h1 = np.empty((len(x), head.w1.shape[1]))

    def layer1(lo, hi):
        _activate(np.matmul(x[lo:hi], head.w1, out=h1[lo:hi]), head.b1)

    run_pieces(partial(layer1, lo, hi) for lo, hi in _halves(len(x), h1.size * x.shape[1]))
    return (h1, *_upper(head, h1))


def _as_bag(embeddings, input_dim: int, name: str) -> np.ndarray:
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim == 1 and x.size == 0:
        x = x.reshape(0, input_dim)
    if x.ndim != 2:
        raise DimensionMismatch(
            f"{name} bag must be a (segments, dim) array, got shape {x.shape}"
        )
    if x.shape[1] != input_dim:
        raise DimensionMismatch(
            f"{name} bag has embedding dimension {x.shape[1]}, "
            f"head expects {input_dim}"
        )
    return x


def _bag_bounds(starts, rows: int) -> np.ndarray:
    """starts followed by `rows`; each bag must hold at least one row."""
    starts = np.asarray(starts)
    if starts.ndim != 1 or starts.dtype.kind not in "iu" or starts.size == 0:
        raise ValueError(f"starts must be a non-empty flat list of integers, got {starts!r}")
    bounds = np.append(starts.astype(np.intp), rows)
    if bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
        raise ValueError(f"starts must increase from 0 within {rows} rows, got {starts!r}")
    return bounds


def score_segments(head: ScoringHead, embeddings, starts=None) -> np.ndarray:
    """Scores for an ordered list of segment embeddings, order preserved.

    With `starts` the rows stack several bags, bag b starting at row
    `starts[b]`, the layout `backprop` also reads. Layer 1 is one product
    over all rows, so the weights are read once: with OpenBLAS's gemm a row
    of it does not depend on which other rows share the product. Layer 2's
    product does, so layers 2 and 3 run on each bag's slice. A 1-row bag
    takes layer 1 alone, because numpy sends a (1, d) product to gemv,
    whose sums differ from gemm's. Each bag's scores are then bitwise those
    of its own call, except where OpenBLAS gives that call's small product
    to its small-matrix kernel (widths 386-974 in OpenBLAS 0.3.31), whose
    sums differ in the last bits.
    """
    x = _as_bag(embeddings, head.input_dim, "segment")
    if starts is None:
        return _forward(head, x)[2]
    bounds = _bag_bounds(starts, len(x))
    z1 = x @ head.w1
    for i in bounds[:-1][np.diff(bounds) == 1]:
        z1[i] = x[i : i + 1] @ head.w1
    h1 = _activate(z1, head.b1)
    scores = np.empty(len(x))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        scores[lo:hi] = _upper(head, h1[lo:hi])[1]
    return scores


def _backward(head: ScoringHead, x, h1, h2, dz3, dw1=None) -> ScoringHead:
    """Parameter gradients from the sigmoid-input gradients dz3 (rows, 1).
    relu'(0) = 0: masks come from h > 0, which is z > 0, NaN included. dz1
    overwrites h1 once h1 has given dw2 and its mask, so one (rows, 512)
    float array is live at a time. The w1 gradient is written into `dw1`
    when given."""
    dw3 = h2.T @ dz3
    db3 = dz3.sum(axis=0)
    dz2 = dz3 @ head.w3.T
    dz2 *= h2 > 0.0
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    mask1 = h1 > 0.0
    dz1 = np.matmul(dz2, head.w2.T, out=h1)
    dz1 *= mask1
    # column halves of dw1, each column's sums unchanged (see `_halves`); a
    # cut at 256 of 512 columns keeps OpenBLAS's column tiles whole, where
    # one at 257 changed bits at d = 118
    if dw1 is None:
        dw1 = np.empty_like(head.w1)
    run_pieces(
        partial(np.matmul, x.T, dz1[:, lo:hi], out=dw1[:, lo:hi])
        for lo, hi in _halves(dz1.shape[1], dw1.size * len(x))
    )
    db1 = dz1.sum(axis=0)
    return ScoringHead(w1=dw1, b1=db1, w2=dw2, b2=db2, w3=dw3, b3=db3)


def _pair_index(pairs, n_bags: int) -> np.ndarray:
    """`pairs` as a (P, 2) int array of (positive bag, negative bag)."""
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError(f"pairs must be a (P, 2) integer array, got shape {pairs.shape}")
    if len(pairs) == 0:
        raise ValueError("pairs is empty")
    if np.any(pairs < 0) or np.any(pairs >= n_bags):
        raise ValueError(f"pairs index outside {n_bags} bags")
    return pairs


def _gather(starts, size: int, bags):
    """Row indices of `bags`, stacked in order, and their stacked starts."""
    starts = starts.astype(np.intp)
    lengths = np.diff(starts, append=size)[bags]
    stacked = np.cumsum(lengths) - lengths
    rows = np.repeat(starts[bags] - stacked, lengths) + np.arange(lengths.sum())
    return rows, stacked


def backprop(head: ScoringHead, embeddings, starts, pairs, lambda1: float, lambda2: float,
             dw1=None):
    """Pair objective summed over bag pairs, and its exact parameter
    gradients as a ScoringHead.

    `embeddings` stacks the bags' rows, bag b starting at row `starts[b]`,
    as in `score_segments`. `pairs` is a (P, 2) int array of (positive bag,
    negative bag) indices into `starts`. Each side's distinct bags are
    gathered once, positives first and each side in ascending bag order,
    and scored once however many pairs use them; their score gradients are
    summed before one backward pass over the rows whose gradient is
    non-zero, since every other row would add exactly zero. Kinks as in the
    loss module. The w1 gradient is written into `dw1`, a (d, 512) float64
    array, when given; the trainer hands in one buffer for every epoch.
    """
    x = _as_bag(embeddings, head.input_dim, "training")
    bounds = _bag_bounds(starts, len(x))
    pairs = _pair_index(pairs, len(bounds) - 1)
    pos_bags, pos_of_pair = np.unique(pairs[:, 0], return_inverse=True)
    neg_bags, neg_of_pair = np.unique(pairs[:, 1], return_inverse=True)
    rows, stacked = _gather(bounds[:-1], len(x), np.concatenate((pos_bags, neg_bags)))
    x = x[rows]
    h1, h2, scores = _forward(head, x)
    # each pair's score lists in the stacked layout the loss reads
    pos_idx, ps = _gather(stacked, len(x), pos_of_pair)
    neg_idx, ns = _gather(stacked, len(x), neg_of_pair + len(pos_bags))
    p, n = scores[pos_idx], scores[neg_idx]
    breakdown = mil_ranking_loss(p, n, lambda1, lambda2, ps, ns)
    dp, dn = loss_score_gradients(p, n, lambda1, lambda2, ps, ns)
    dscores = np.bincount(
        np.concatenate((pos_idx, neg_idx)),
        weights=np.concatenate((dp, dn)),
        minlength=len(scores),
    )
    dz3 = dscores * scores * (1.0 - scores)
    live = np.flatnonzero(dz3)
    x, h1, h2 = x[live], h1[live], h2[live]  # frees the all-row arrays
    return breakdown, _backward(head, x, h1, h2, dz3[live, None], dw1)
