"""Equivalence of the batched training epoch with the per-pair loop.

The oracle is a test-local copy of the per-pair epoch: one `backprop` call
per (positive, negative) pair, the gradients summed in pair order and
divided by the pair count, and a functional Adagrad step
p - lr * g / (sqrt(acc) + eps). The batched epoch scores each distinct bag
once and runs the backward pass only over rows with a non-zero score
gradient. Float reductions run in a different order, so loss terms agree
to a relative bound, and each gradient entry to GRAD_RTOL times the summed
magnitudes of the terms that make it up (`term_magnitudes`), not bitwise.
The in-place Adagrad step is bitwise equal to the formula.

Training on a split's BagSet, where `backprop` gathers each epoch's bags
from the one split array, is held bitwise to a test-local copy of the
epoch that stacked each side's distinct bags itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptde import scoring
from ptde.data import BagSet, load_manifest, load_split_bags
from ptde.errors import NonFiniteLoss
from ptde.fusion import FusionMode
from ptde.loss import loss_score_gradients, mil_ranking_loss
from ptde.scoring import ScoringHead, backprop, init_head
from ptde.synth import SynthSpec, generate_synthetic
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


def term_magnitudes(head, pos, neg, lam1, lam2):
    """One pair's backward chain with every factor replaced by its magnitude.

    Entry by entry, this is the sum of |terms| the pair adds to each
    parameter gradient. Round-off of any summation order is a small
    multiple of it, also where the gradient itself nearly cancels (a pair
    with one bag on both sides gives its argmax row -1 and +1).
    """
    x = np.concatenate((pos, neg))
    h1 = np.maximum(x @ head.w1 + head.b1, 0.0)
    h2 = np.maximum(h1 @ head.w2 + head.b2, 0.0)
    s = 1.0 / (1.0 + np.exp(-(h2 @ head.w3 + head.b3)[:, 0]))
    dp, dn = loss_score_gradients(s[: len(pos)], s[len(pos) :], lam1, lam2)
    dz3 = (np.abs(np.concatenate((dp, dn))) * s * (1.0 - s))[:, None]
    a2 = dz3 * np.abs(head.w3.T) * (h2 > 0.0)
    a1 = (a2 @ np.abs(head.w2.T)) * (h1 > 0.0)
    return [np.abs(x).T @ a1, a1.sum(axis=0), h1.T @ a2, a2.sum(axis=0),
            h2.T @ dz3, dz3.sum(axis=0)]


def loss_terms(bd):
    """A LossBreakdown's terms in HISTORY_COLUMNS order."""
    return np.array([bd.total, bd.hinge, bd.smoothness, bd.sparsity])


def one_pair(head, pos, neg, lam1, lam2):
    """`backprop` over one (positive, negative) pair of bags."""
    return backprop(head, np.concatenate((pos, neg)), [0, len(pos)], [[0, 1]], lam1, lam2)


def per_pair_epoch(head, pos_bags, neg_bags, lam1=LAM1, lam2=LAM2):
    """Oracle: summed loss terms, summed gradients and summed term
    magnitudes, one pair at a time."""
    terms = np.zeros(len(HISTORY_COLUMNS))
    grad_sum = magnitudes = None
    for p, n in zip(pos_bags, neg_bags):
        bd, grads = one_pair(head, p, n, lam1, lam2)
        terms += loss_terms(bd)
        mags = term_magnitudes(head, p, n, lam1, lam2)
        if grad_sum is None:
            grad_sum = [g.copy() for g in grads.params()]
            magnitudes = mags
        else:
            for acc, g in zip(grad_sum, grads.params()):
                acc += g
            for acc, m in zip(magnitudes, mags):
                acc += m
    return terms, grad_sum, magnitudes


def bag_starts(bags):
    return np.cumsum([0] + [len(b) for b in bags[:-1]])


def batched_epoch(head, pos_bags, neg_bags):
    """One `backprop` call in which pair k is (pos_bags[k], neg_bags[k]),
    each listed bag a bag of its own."""
    k = np.arange(len(pos_bags))
    bags = pos_bags + neg_bags
    bd, grads = backprop(
        head, np.concatenate(bags), bag_starts(bags), np.column_stack((k, k + len(k))),
        LAM1, LAM2,
    )
    return loss_terms(bd), grads


def stacked_backprop(head, pos_bags, neg_bags, lam1, lam2):
    """Test-local copy of the all-row epoch: every pair's rows stacked, one
    forward and one backward pass over all of them."""
    pos, neg = np.concatenate(pos_bags), np.concatenate(neg_bags)
    x = np.concatenate((pos, neg))
    h1, h2, s = scoring._forward(head, x)
    ps, ns = s[: len(pos)], s[len(pos) :]
    starts = (bag_starts(pos_bags), bag_starts(neg_bags))
    bd = mil_ranking_loss(ps, ns, lam1, lam2, *starts)
    dps, dns = loss_score_gradients(ps, ns, lam1, lam2, *starts)
    dz3 = (np.concatenate((dps, dns)) * s * (1.0 - s))[:, None]
    return bd, scoring._backward(head, x, h1, h2, dz3)


def functional_adagrad(params, grads, sums, lr, eps):
    new_sums = [s + g * g for g, s in zip(grads, sums)]
    new_params = [p - lr * g / (np.sqrt(a) + eps) for p, g, a in zip(params, grads, new_sums)]
    return new_params, new_sums


def assert_close(actual, expected, rtol):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


def grads_within(grads, expected, magnitudes):
    """Every entry within GRAD_RTOL of its summed term magnitudes."""
    return all(
        g.shape == e.shape and np.all(np.abs(g - e) <= GRAD_RTOL * m)
        for g, e, m in zip(grads, expected, magnitudes)
    )


def make_epoch(seed, lengths, ties, pos_idx, neg_idx):
    """(head, bag pool, pos_idx, neg_idx); a tied bag repeats one row."""
    rng = np.random.default_rng(seed)
    pool = []
    for length, tie in zip(lengths, ties):
        bag = rng.standard_normal((length, DIM))
        if length > 1 and tie:
            i, j = rng.choice(length, size=2, replace=False)
            bag[j] = bag[i]
        pool.append(bag)
    return small_head(rng), pool, list(pos_idx), list(neg_idx)


@st.composite
def epochs(draw):
    """A pool of bags and P pairs drawn from it with replacement.

    Bags hold 1-8 rows; some repeat a row, so their maximum score is tied.
    A pair may use one bag on both sides, and a bag may recur on each side.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    ties = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    pairs = draw(st.integers(1, 8))
    index = st.integers(0, len(lengths) - 1)
    pos_idx = draw(st.lists(index, min_size=pairs, max_size=pairs))
    neg_idx = draw(st.lists(index, min_size=pairs, max_size=pairs))
    return make_epoch(seed, lengths, ties, pos_idx, neg_idx)


def pair_bags(pool, pos_idx, neg_idx):
    return [pool[i] for i in pos_idx], [pool[i] for i in neg_idx]


@settings(max_examples=60, deadline=None)
@given(epochs())
def test_batched_epoch_matches_per_pair_loop(case):
    head, pool, pos_idx, neg_idx = case
    pos_bags, neg_bags = pair_bags(pool, pos_idx, neg_idx)
    expected_terms, expected_grads, magnitudes = per_pair_epoch(head, pos_bags, neg_bags)
    terms, grads = batched_epoch(head, pos_bags, neg_bags)
    assert_close(terms, expected_terms, TERM_RTOL)
    assert grads_within(grads.params(), expected_grads, magnitudes)

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


# b3's gradient here is -1.2e-6, summed from terms of magnitude 1.0
NEAR_CANCELLATION = dict(
    seed=1936417407, lengths=[5, 8], ties=[False, True], pos_idx=[1, 1], neg_idx=[1, 0]
)
EIGHT_PAIRS = dict(
    seed=826825379, lengths=[8, 4], ties=[False, False],
    pos_idx=[1, 0, 0, 0, 0, 0, 1, 1], neg_idx=[0, 0, 1, 0, 1, 1, 1, 0],
)


def test_near_cancellation_is_held_to_its_terms():
    """A bound scaled by the array's largest |entry| allows b3 less than
    one rounding of its terms, so a correct sum in another order can fail
    it; the entrywise bound allows a few thousand roundings."""
    head, pool, pos_idx, neg_idx = make_epoch(**NEAR_CANCELLATION)
    pos_bags, neg_bags = pair_bags(pool, pos_idx, neg_idx)
    _, expected, magnitudes = per_pair_epoch(head, pos_bags, neg_bags)
    b3, b3_terms = abs(expected[5][0]), magnitudes[5][0]
    assert GRAD_RTOL * b3 < np.spacing(b3_terms) < GRAD_RTOL * b3_terms / 1000
    for grads in (batched_epoch(head, pos_bags, neg_bags)[1],
                  stacked_backprop(head, pos_bags, neg_bags, LAM1, LAM2)[1]):
        assert grads_within(grads.params(), expected, magnitudes)


@pytest.mark.parametrize("case", [NEAR_CANCELLATION, EIGHT_PAIRS])
def test_entrywise_bound_rejects_wrong_gradients(case):
    head, pool, pos_idx, neg_idx = make_epoch(**case)
    pos_bags, neg_bags = pair_bags(pool, pos_idx, neg_idx)
    _, expected, magnitudes = per_pair_epoch(head, pos_bags, neg_bags)
    grads = [g.copy() for g in batched_epoch(head, pos_bags, neg_bags)[1].params()]
    assert grads_within(grads, expected, magnitudes)

    _, dropped = batched_epoch(head, pos_bags[1:], neg_bags[1:])
    assert not grads_within(dropped.params(), expected, magnitudes)

    # the entry largest against its terms, off by a relative 1e-9
    ratios = [np.abs(e) / np.where(m > 0, m, np.inf) for e, m in zip(expected, magnitudes)]
    k = int(np.argmax([r.max() for r in ratios]))
    entry = np.unravel_index(np.argmax(ratios[k]), ratios[k].shape)
    grads[k][entry] *= 1.0 + 1e-9
    assert not grads_within(grads, expected, magnitudes)


@settings(max_examples=60, deadline=None)
@given(epochs(), st.sampled_from([(LAM1, LAM2), (0.0, 0.0)]))
def test_pairs_over_distinct_bags_match_the_stacked_epoch(case, lambdas):
    """The pool is passed once and the pairs index into it: repeated bags,
    unused bags, a bag on both sides, ties at the maximum and, with both
    lambdas 0, positive rows without a gradient."""
    head, pool, pos_idx, neg_idx = case
    pos_bags, neg_bags = pair_bags(pool, pos_idx, neg_idx)
    expected_bd, expected = stacked_backprop(head, pos_bags, neg_bags, *lambdas)
    _, _, magnitudes = per_pair_epoch(head, pos_bags, neg_bags, *lambdas)
    bd, grads = backprop(
        head, np.concatenate(pool), bag_starts(pool),
        np.column_stack((pos_idx, neg_idx)), *lambdas,
    )
    assert_close(loss_terms(bd), loss_terms(expected_bd), TERM_RTOL)
    assert grads_within(grads.params(), expected.params(), magnitudes)


def record_rows(monkeypatch):
    """Row counts of every forward and backward pass from here on."""
    rows = {"forward": [], "backward": []}
    forward, backward = scoring._forward, scoring._backward

    def counted_forward(head, x):
        rows["forward"].append(len(x))
        return forward(head, x)

    def counted_backward(head, x, *rest):
        rows["backward"].append(len(x))
        return backward(head, x, *rest)

    monkeypatch.setattr(scoring, "_forward", counted_forward)
    monkeypatch.setattr(scoring, "_backward", counted_backward)
    return rows


def test_forward_once_per_bag_and_backward_over_live_rows(monkeypatch):
    rng = np.random.default_rng(4)
    head = small_head(rng)
    pos, neg = rng.standard_normal((4, DIM)), rng.standard_normal((5, DIM))
    rows = record_rows(monkeypatch)
    backprop(head, np.concatenate((pos, neg)), [0, 4], [[0, 1]] * 3, LAM1, LAM2)
    assert rows["forward"] == [4 + 5]
    # every positive row (the lambda terms) and the negative argmax
    assert rows["backward"] == [4 + 1]


def test_no_live_row_gives_exact_zero_gradients(monkeypatch):
    """Positive scores saturate at 1.0 and negative ones at 0.0, so every
    hinge is met; with both lambdas 0 no row has a score gradient."""
    head = ScoringHead(
        w1=np.ones((DIM, 4)), b1=np.zeros(4), w2=np.ones((4, 2)), b2=np.zeros(2),
        w3=np.ones((2, 1)), b3=np.array([-800.0]),
    )
    pos, neg = np.full((3, DIM), 100.0), np.full((2, DIM), -100.0)
    rows = record_rows(monkeypatch)
    bd, grads = backprop(head, np.concatenate((pos, neg)), [0, 3], [[0, 1]] * 2, 0.0, 0.0)
    assert bd.total == 0.0
    assert rows["backward"] == [0]
    for g, p in zip(grads.params(), head.params()):
        assert g.shape == p.shape
        assert not g.any()


def test_w1_gradient_goes_into_the_given_buffer(monkeypatch):
    """A buffer holding a previous epoch's values is overwritten whole, the
    no-live-row case included."""
    rng = np.random.default_rng(6)
    head = small_head(rng)
    x = rng.standard_normal((9, DIM))
    expected = backprop(head, x, [0, 4], [[0, 1]] * 3, LAM1, LAM2)[1]
    buf = np.full_like(head.w1, np.nan)
    grads = backprop(head, x, [0, 4], [[0, 1]] * 3, LAM1, LAM2, buf)[1]
    assert grads.w1 is buf
    for g, e in zip(grads.params(), expected.params()):
        assert g.tobytes() == e.tobytes()
    rows = record_rows(monkeypatch)
    head.b3[:] = -800.0  # every score is 0.0, where the sigmoid's slope is 0
    grads = backprop(head, x, [0, 4], [[0, 1]], 0.0, 0.0, buf)[1]
    assert rows["backward"] == [0]
    assert grads.w1 is buf and not buf.any()


@pytest.mark.parametrize("pairs", [
    [[0, 3]],  # bags are 0-2
    [[-1, 0]],
    [[0, 0, 0]],
    [0, 0],
    np.zeros((0, 2), dtype=int),
    [[0.0, 0.0]],
])
def test_malformed_pairs_raise(pairs):
    rng = np.random.default_rng(5)
    head = small_head(rng)
    with pytest.raises(ValueError):
        backprop(head, rng.standard_normal((5, DIM)), [0, 1, 3], pairs, LAM1, LAM2)


def split_bags(bags: BagSet):
    """(positive bags, negative bags), each a list of (rows, dim) arrays."""
    arrays = np.split(bags.embeddings, bags.offsets[1:-1])
    return ([x for x, p in zip(arrays, bags.is_positive) if p],
            [x for x, p in zip(arrays, bags.is_positive) if not p])


def make_bags(rng, n_pos=5, n_neg=5, dim=DIM):
    arrays = []
    for i in range(n_pos + n_neg):
        x = rng.standard_normal((int(rng.integers(1, 9)), dim)) * 0.5
        if i < n_pos:
            x[0, 0] += 2.0
        arrays.append(x)
    return BagSet(
        np.concatenate(arrays), np.cumsum([0] + [len(x) for x in arrays]),
        np.arange(n_pos + n_neg) < n_pos,
    )


def per_pair_train(bags, config):
    """Oracle copy of the per-pair training loop."""
    pos, neg = split_bags(bags)
    head = init_head(bags.embeddings.shape[1], config.seed)
    params = list(head.params())
    sums = [np.zeros_like(p) for p in params]
    sampler = np.random.default_rng([config.seed, 1])
    history = np.empty((config.epochs, len(HISTORY_COLUMNS)))
    for epoch in range(config.epochs):
        pos_idx = sampler.integers(0, len(pos), size=config.pairs_per_epoch)
        neg_idx = sampler.integers(0, len(neg), size=config.pairs_per_epoch)
        terms, grad_sum, _ = per_pair_epoch(
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
    b = index if positive else 4 + index
    lo, hi = bags.offsets[b], bags.offsets[b + 1]
    bags.embeddings[lo + row % (hi - lo), 1] = np.nan
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


def two_sided_backprop(head, pos, neg, pos_starts, neg_starts, pairs, lam1, lam2):
    """Test-local copy of the two-sided `backprop`: positive rows stacked
    above negative rows, pairs indexing each side's bags."""

    def gather(starts, size, bags):
        lengths = np.diff(starts, append=size)[bags]
        stacked = np.cumsum(lengths) - lengths
        return np.repeat(starts[bags] - stacked, lengths) + np.arange(lengths.sum()), stacked

    x = np.concatenate((pos, neg))
    h1, h2, scores = scoring._forward(head, x)
    pos_idx, ps = gather(pos_starts, len(pos), pairs[:, 0])
    neg_idx, ns = gather(neg_starts, len(neg), pairs[:, 1])
    neg_idx += len(pos)
    p, n = scores[pos_idx], scores[neg_idx]
    bd = mil_ranking_loss(p, n, lam1, lam2, ps, ns)
    dp, dn = loss_score_gradients(p, n, lam1, lam2, ps, ns)
    dscores = np.bincount(
        np.concatenate((pos_idx, neg_idx)), weights=np.concatenate((dp, dn)),
        minlength=len(scores),
    )
    dz3 = dscores * scores * (1.0 - scores)
    live = np.flatnonzero(dz3)
    return bd, scoring._backward(head, x[live], h1[live], h2[live], dz3[live, None])


def two_sided_train(bags: BagSet, config):
    """Test-local copy of the training loop that stacked each side's
    distinct bags itself: per-side `np.unique`, per-side concatenation."""
    pos, neg = split_bags(bags)
    head = init_head(bags.embeddings.shape[1], config.seed)
    sum_sq = ScoringHead(*(np.zeros_like(p) for p in head.params()))
    sampler = np.random.default_rng([config.seed, 1])
    history = np.empty((config.epochs, len(HISTORY_COLUMNS)))
    pairs = config.pairs_per_epoch
    for epoch in range(config.epochs):
        pos_idx = sampler.integers(0, len(pos), size=pairs)
        neg_idx = sampler.integers(0, len(neg), size=pairs)
        pos_bags, pos_of_pair = np.unique(pos_idx, return_inverse=True)
        neg_bags, neg_of_pair = np.unique(neg_idx, return_inverse=True)
        pos_lens = np.array([len(pos[i]) for i in pos_bags])
        neg_lens = np.array([len(neg[i]) for i in neg_bags])
        bd, grads = two_sided_backprop(
            head,
            np.concatenate([pos[i] for i in pos_bags]),
            np.concatenate([neg[i] for i in neg_bags]),
            np.cumsum(pos_lens) - pos_lens,
            np.cumsum(neg_lens) - neg_lens,
            np.column_stack((pos_of_pair, neg_of_pair)),
            config.lambda1, config.lambda2,
        )
        history[epoch] = loss_terms(bd) / pairs
        adagrad_step(head, grads, sum_sq, config.learning_rate, pairs)
    return head, history


@pytest.mark.parametrize("feature_dim, epochs", [(64, 40), (1024, 4)], ids=["118-d", "1078-d"])
def test_split_training_is_bitwise_the_two_sided_epoch(tmp_path, feature_dim, epochs):
    spec = SynthSpec(seed=9, feature_dim=feature_dim)
    manifest = load_manifest(generate_synthetic(spec, tmp_path))
    config = TrainConfig(epochs=epochs, seed=4, fusion_mode=FusionMode.GLOBAL_LOCAL_CONCAT)
    bags = load_split_bags(manifest, "train", config.fusion_mode)
    assert bags.embeddings.shape[1] == feature_dim + 54
    run = train(bags, config)
    head, history = two_sided_train(bags, config)
    assert run.history.tobytes() == history.tobytes()
    for p, expected in zip(run.head.params(), head.params()):
        assert p.tobytes() == expected.tobytes()
