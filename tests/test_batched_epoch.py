"""Equivalence of the batched training epoch with the per-pair loop.

The oracle is a test-local copy of the per-pair epoch: one `backprop` call
per (positive, negative) pair, the gradients summed in pair order and
divided by the pair count, and a functional Adagrad step
p - lr * g / (sqrt(acc) + eps). The batched epoch stacks the same pairs'
rows and runs one forward and one backward pass. Float reductions run in a
different order, so gradients and loss terms agree to a relative bound,
not bitwise; the in-place Adagrad step is bitwise equal to the formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptde.data import VideoBag
from ptde.errors import NonFiniteLoss
from ptde.scoring import ScoringHead, backprop, init_head
from ptde.trainer import (
    ADAGRAD_EPSILON,
    HISTORY_COLUMNS,
    TrainConfig,
    adagrad_step,
    train,
)

DIM = 5
LAM1 = LAM2 = 8e-5
GRAD_RTOL = 1e-11
TERM_RTOL = 1e-13


def small_head(rng, dim=DIM, h1=16, h2=8):
    """Random weights and biases, so relus sit on both sides of zero."""
    return ScoringHead(
        w1=rng.uniform(-0.8, 0.8, (dim, h1)),
        b1=rng.uniform(-0.5, 0.5, h1),
        w2=rng.uniform(-0.8, 0.8, (h1, h2)),
        b2=rng.uniform(-0.5, 0.5, h2),
        w3=rng.uniform(-0.8, 0.8, (h2, 1)),
        b3=rng.uniform(-0.5, 0.5, 1),
    )


def per_pair_epoch(head, pos_bags, neg_bags):
    """Oracle: summed loss terms and summed gradients, one pair at a time."""
    terms = np.zeros(len(HISTORY_COLUMNS))
    grad_sum = None
    for p, n in zip(pos_bags, neg_bags):
        bd, grads = backprop(head, p, n, LAM1, LAM2)
        terms += (bd.total, bd.hinge, bd.smoothness, bd.sparsity)
        if grad_sum is None:
            grad_sum = [g.copy() for g in grads.params()]
        else:
            for acc, g in zip(grad_sum, grads.params()):
                acc += g
    return terms, grad_sum


def batched_epoch(head, pos_bags, neg_bags):
    pos_starts = np.cumsum([0] + [len(b) for b in pos_bags[:-1]])
    neg_starts = np.cumsum([0] + [len(b) for b in neg_bags[:-1]])
    bd, grads = backprop(
        head, np.concatenate(pos_bags), np.concatenate(neg_bags), LAM1, LAM2,
        pos_starts=pos_starts, neg_starts=neg_starts,
    )
    return np.array([bd.total, bd.hinge, bd.smoothness, bd.sparsity]), grads


def functional_adagrad(params, grads, sums, lr, eps):
    new_sums = [s + g * g for g, s in zip(grads, sums)]
    new_params = [p - lr * g / (np.sqrt(a) + eps) for p, g, a in zip(params, grads, new_sums)]
    return new_params, new_sums


def assert_close(actual, expected, rtol):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


@st.composite
def epochs(draw):
    """A pool of bags and P pairs drawn from it with replacement.

    Bags hold 1-8 rows; some repeat a row, so their maximum score is tied.
    A pair may use one bag on both sides.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = []
    for length in draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)):
        bag = rng.standard_normal((length, DIM))
        if length > 1 and draw(st.booleans()):
            i, j = rng.choice(length, size=2, replace=False)
            bag[j] = bag[i]
        pool.append(bag)
    pairs = draw(st.integers(1, 8))
    index = st.integers(0, len(pool) - 1)
    pos_idx = draw(st.lists(index, min_size=pairs, max_size=pairs))
    neg_idx = draw(st.lists(index, min_size=pairs, max_size=pairs))
    head = small_head(rng)
    return head, [pool[i] for i in pos_idx], [pool[i] for i in neg_idx]


@settings(max_examples=60, deadline=None)
@given(epochs())
def test_batched_epoch_matches_per_pair_loop(case):
    head, pos_bags, neg_bags = case
    expected_terms, expected_grads = per_pair_epoch(head, pos_bags, neg_bags)
    terms, grads = batched_epoch(head, pos_bags, neg_bags)
    assert_close(terms, expected_terms, TERM_RTOL)
    for g, expected in zip(grads.params(), expected_grads):
        assert g.shape == expected.shape
        assert_close(g, expected, GRAD_RTOL)

    # one Adagrad step on the mean gradient: in place == functional, bitwise
    for g in grads.params():
        g /= len(pos_bags)
    sum_sq = ScoringHead(*(np.zeros_like(p) for p in head.params()))
    expected_params, expected_sums = functional_adagrad(
        head.params(), grads.params(), sum_sq.params(), 0.01, ADAGRAD_EPSILON
    )
    adagrad_step(head, grads, sum_sq, 0.01)
    for p, s, ep, es in zip(head.params(), sum_sq.params(), expected_params, expected_sums):
        assert np.array_equal(p, ep)
        assert np.array_equal(s, es)


def test_single_pair_is_the_one_bag_call():
    rng = np.random.default_rng(3)
    head = small_head(rng)
    pos, neg = rng.standard_normal((4, DIM)), rng.standard_normal((3, DIM))
    bd, grads = backprop(head, pos, neg, LAM1, LAM2)
    bd_starts, grads_starts = backprop(head, pos, neg, LAM1, LAM2, [0], [0])
    assert bd == bd_starts
    for a, b in zip(grads.params(), grads_starts.params()):
        assert np.array_equal(a, b)


def make_bags(rng, n_pos=5, n_neg=5, dim=DIM):
    bags = []
    for i in range(n_pos + n_neg):
        x = rng.standard_normal((int(rng.integers(1, 9)), dim)) * 0.5
        positive = i < n_pos
        if positive:
            x[0, 0] += 2.0
        bags.append(VideoBag(x, positive))
    return bags


def per_pair_train(bags, config):
    """Oracle copy of the per-pair training loop."""
    pos = [b.embeddings for b in bags if b.is_positive]
    neg = [b.embeddings for b in bags if not b.is_positive]
    head = init_head(bags[0].embeddings.shape[1], config.seed)
    params = list(head.params())
    sums = [np.zeros_like(p) for p in params]
    sampler = np.random.default_rng([config.seed, 1])
    history = np.empty((config.epochs, len(HISTORY_COLUMNS)))
    for epoch in range(config.epochs):
        pos_idx = sampler.integers(0, len(pos), size=config.pairs_per_epoch)
        neg_idx = sampler.integers(0, len(neg), size=config.pairs_per_epoch)
        terms, grad_sum = per_pair_epoch(
            ScoringHead(*params), [pos[i] for i in pos_idx], [neg[i] for i in neg_idx]
        )
        history[epoch] = terms / config.pairs_per_epoch
        if not np.isfinite(history[epoch, 0]):
            raise NonFiniteLoss(f"objective became non-finite at epoch {epoch}")
        mean = [g / config.pairs_per_epoch for g in grad_sum]
        params, sums = functional_adagrad(
            params, mean, sums, config.learning_rate, ADAGRAD_EPSILON
        )
    return params, history


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_matches_per_pair_training(seed):
    bags = make_bags(np.random.default_rng([11, seed]))
    config = TrainConfig(epochs=4, pairs_per_epoch=6, seed=seed)
    params, history = per_pair_train(bags, config)
    run = train(bags, config)
    for col in range(history.shape[1]):
        assert_close(run.history[:, col], history[:, col], TERM_RTOL)
    for p, expected in zip(run.head.params(), params):
        assert_close(p, expected, GRAD_RTOL)


def first_draw_epoch(config, n_pos, n_neg, positive, index):
    """The first epoch whose sampled pairs include the given bag."""
    sampler = np.random.default_rng([config.seed, 1])
    for epoch in range(config.epochs):
        pos_idx = sampler.integers(0, n_pos, size=config.pairs_per_epoch)
        neg_idx = sampler.integers(0, n_neg, size=config.pairs_per_epoch)
        if index in (pos_idx if positive else neg_idx):
            return epoch
    return None


@settings(max_examples=20, deadline=None)
@given(
    positive=st.booleans(),
    index=st.integers(0, 3),
    row=st.integers(0, 7),
    seed=st.integers(0, 1000),
)
def test_nan_row_ends_in_non_finite_loss_at_its_epoch(positive, index, row, seed):
    bags = make_bags(np.random.default_rng(seed), n_pos=4, n_neg=4)
    target = bags[index if positive else 4 + index]
    target.embeddings[row % len(target.embeddings), 1] = np.nan
    config = TrainConfig(epochs=6, pairs_per_epoch=3, seed=seed)
    epoch = first_draw_epoch(config, 4, 4, positive, index)
    if epoch is None:
        run = train(bags, config)
        assert np.all(np.isfinite(run.history))
        return
    with pytest.raises(NonFiniteLoss, match=f"at epoch {epoch}$"):
        train(bags, config)
    with pytest.raises(NonFiniteLoss, match=f"at epoch {epoch}$"):
        per_pair_train(bags, config)
