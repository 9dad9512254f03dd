"""Adagrad training loop over sampled bag pairs.

One epoch = sample `pairs_per_epoch` (positive, negative) bag pairs with
replacement from a split's BagSet, hand them to one `backprop` call over the
split's rows (which gathers each distinct bag once, runs the forward pass
once per distinct bag and the backward pass only over rows with a non-zero
score gradient), average the summed pair-objective gradients, and take one
in-place Adagrad step. The squared-gradient sums live in a second
ScoringHead, zeroed at the start. TrainConfig owns the training settings,
and the CLI reads its flag defaults from it; Adagrad's epsilon is the
constant ADAGRAD_EPSILON.

Runs are bit-for-bit reproducible from (dataset, config) with any number of
cores. The step spreads its blocks over `ptde.parallel`'s threads when
there are more than ADAGRAD_SPLIT_BLOCKS of them (widths over 384), and
`backprop` cuts its widest products by shape alone (see `ptde.scoring`).
The bits still depend on the BLAS thread count, since OpenBLAS sums a
product in another order at two threads.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import BagSet
from .errors import InsufficientData, NonFiniteLoss, ShapeMismatch
from .fileio import write_atomic
from .fusion import FusionMode
from .parallel import run_pieces
from .scoring import ScoringHead, backprop, init_head

HISTORY_COLUMNS = ("total", "hinge", "smoothness", "sparsity")
ADAGRAD_EPSILON = 1e-8
# 512 KB of float64 per temporary; a 118-d w1 (60416 elements) is one block
ADAGRAD_BLOCK_ELEMENTS = 1 << 16
# a step of more blocks than this (a w1 over 384 rows, in 128-row blocks,
# and one block for each other parameter) spreads them over
# ptde.parallel's threads
ADAGRAD_SPLIT_BLOCKS = 8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 5000
    pairs_per_epoch: int = 30
    lambda1: float = 8e-5
    lambda2: float = 8e-5
    seed: int = 0
    fusion_mode: FusionMode = FusionMode.GLOBAL_LOCAL_CONCAT

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.pairs_per_epoch < 1:
            raise ValueError(
                f"pairs_per_epoch must be >= 1, got {self.pairs_per_epoch}"
            )
        if not all(math.isfinite(v) and v >= 0 for v in (self.lambda1, self.lambda2)):
            raise ValueError("lambda1 and lambda2 must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def adagrad_step(
    head: ScoringHead, grads: ScoringHead, sum_sq: ScoringHead, learning_rate: float,
    divisor: float = 1,
) -> None:
    """One Adagrad update in place: acc += g^2; p -= lr * g / (sqrt(acc) + eps).

    `sum_sq` holds the per-parameter sums of squared gradients, laid out as
    a head. eps is ADAGRAD_EPSILON, outside the square root. The gradients
    are first divided in place by `divisor` (the trainer's pair count). The
    operations keep the order of that formula, so a step is bitwise equal to
    it. Being elementwise, they run over row blocks of ADAGRAD_BLOCK_ELEMENTS
    so that each block's temporaries stay in cache; over ADAGRAD_SPLIT_BLOCKS
    blocks, the calling thread and `ptde.parallel`'s helpers share them.
    """
    blocks = []
    for p, g, s in zip(head.params(), grads.params(), sum_sq.params()):
        if p.shape != g.shape or p.shape != s.shape:
            raise ShapeMismatch(
                f"parameter/gradient/accumulator shapes differ: {p.shape} vs {g.shape} vs {s.shape}"
            )
        rows = max(1, ADAGRAD_BLOCK_ELEMENTS * len(p) // p.size)
        blocks += [partial(_adagrad_block, p[lo : lo + rows], g[lo : lo + rows],
                           s[lo : lo + rows], learning_rate, divisor)
                   for lo in range(0, len(p), rows)]
    if len(blocks) > ADAGRAD_SPLIT_BLOCKS:
        run_pieces(blocks)
    else:
        for block in blocks:
            block()


def _adagrad_block(p, g, s, learning_rate, divisor) -> None:
    g /= divisor
    s += g * g
    u = g * learning_rate
    t = np.sqrt(s)
    t += ADAGRAD_EPSILON
    u /= t
    p -= u


@dataclass
class TrainRun:
    """Trained head, per-epoch loss history and the config it was given."""

    head: ScoringHead
    history: np.ndarray  # (epochs, 4) columns per HISTORY_COLUMNS
    config: TrainConfig


def train(bags: BagSet, config: TrainConfig) -> TrainRun:
    """Train a fresh head on a split's labeled bags.

    Sampling, initialization, and reduction order are all fixed by
    config.seed.
    """
    pos = np.flatnonzero(bags.is_positive)
    neg = np.flatnonzero(~bags.is_positive)
    if not len(pos) or not len(neg):
        raise InsufficientData(
            f"need at least one positive and one negative bag, "
            f"got {len(pos)} positive / {len(neg)} negative"
        )
    starts = bags.offsets[:-1]
    head = init_head(bags.embeddings.shape[1], config.seed)
    sum_sq = ScoringHead(*(np.zeros_like(p) for p in head.params()))
    # sampling stream keyed off the seed, distinct from the init stream
    sampler = np.random.default_rng([config.seed, 1])
    history = np.empty((config.epochs, len(HISTORY_COLUMNS)))
    # every epoch's w1 gradient: one buffer, so no epoch holds two
    dw1 = np.empty_like(head.w1)

    pairs = config.pairs_per_epoch
    for epoch in range(config.epochs):
        pos_idx = sampler.integers(0, len(pos), size=pairs)
        neg_idx = sampler.integers(0, len(neg), size=pairs)
        bd, grads = backprop(
            head, bags.embeddings, starts, np.column_stack((pos[pos_idx], neg[neg_idx])),
            config.lambda1, config.lambda2, dw1,
        )
        history[epoch] = np.array((bd.total, bd.hinge, bd.smoothness, bd.sparsity)) / pairs
        if not np.isfinite(history[epoch, 0]):
            raise NonFiniteLoss(f"objective became non-finite at epoch {epoch}")
        adagrad_step(head, grads, sum_sq, config.learning_rate, pairs)

    return TrainRun(head=head, history=history, config=config)


def write_run_log(run: TrainRun, path) -> None:
    """One line per epoch: epoch, total, hinge, smoothness, sparsity (tabs)."""
    rows = enumerate(run.history, start=1)
    lines = [f"{epoch}\t{t}\t{h}\t{sm}\t{sp}" for epoch, (t, h, sm, sp) in rows]
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])
