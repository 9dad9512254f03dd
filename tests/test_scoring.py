import math

import numpy as np
import pytest

from ptde.cli import SCORE_BLOCK_ROWS
from ptde.errors import DimensionMismatch
from ptde.loss import mil_ranking_loss
from ptde.scoring import (
    HIDDEN1,
    HIDDEN2,
    OUTPUT,
    ScoringHead,
    backprop,
    init_head,
    score_segments,
)


def random_head(rng, input_dim, h1=6, h2=4):
    """Small head with random weights AND biases (init_head zeroes biases)."""
    return ScoringHead(
        w1=rng.uniform(-0.8, 0.8, (input_dim, h1)),
        b1=rng.uniform(-0.5, 0.5, h1),
        w2=rng.uniform(-0.8, 0.8, (h1, h2)),
        b2=rng.uniform(-0.5, 0.5, h2),
        w3=rng.uniform(-0.8, 0.8, (h2, 1)),
        b3=rng.uniform(-0.5, 0.5, 1),
    )


def oracle_score(head, x):
    """Scalar-loop forward pass, independent of the numpy implementation."""
    h1 = []
    for j in range(head.w1.shape[1]):
        z = head.b1[j] + sum(x[i] * head.w1[i, j] for i in range(len(x)))
        h1.append(max(z, 0.0))
    h2 = []
    for j in range(head.w2.shape[1]):
        z = head.b2[j] + sum(h1[i] * head.w2[i, j] for i in range(len(h1)))
        h2.append(max(z, 0.0))
    z = head.b3[0] + sum(h2[i] * head.w3[i, 0] for i in range(len(h2)))
    return 1.0 / (1.0 + math.exp(-z))


class TestInitHead:
    def test_deterministic(self):
        a = init_head(4096, 7)
        b = init_head(4096, 7)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = init_head(16, 0)
        b = init_head(16, 1)
        assert not np.array_equal(a.w1, b.w1)

    def test_biases_zero(self):
        head = init_head(32, 123)
        assert not head.b1.any()
        assert not head.b2.any()
        assert not head.b3.any()

    def test_glorot_bounds(self):
        head = init_head(8, 3)
        assert np.all(np.abs(head.w1) <= math.sqrt(6.0 / (8 + 512)))
        assert np.all(np.abs(head.w2) <= math.sqrt(6.0 / (512 + 32)))
        assert np.all(np.abs(head.w3) <= math.sqrt(6.0 / (32 + 1)))

    def test_layer_widths(self):
        head = init_head(8, 0)
        assert head.layer_dims == (HIDDEN1, HIDDEN2, OUTPUT)
        assert head.input_dim == 8

    def test_bad_input_dim(self):
        with pytest.raises(ValueError):
            init_head(0, 1)


def score_one(head, x):
    """One segment's score, as score_segments of a one-row bag."""
    out = score_segments(head, np.asarray(x)[None, :])
    assert out.shape == (1,)
    return float(out[0])


class TestScore:
    def test_all_zero_head_scores_half(self):
        head = ScoringHead(
            w1=np.zeros((4, 6)), b1=np.zeros(6),
            w2=np.zeros((6, 3)), b2=np.zeros(3),
            w3=np.zeros((3, 1)), b3=np.zeros(1),
        )
        assert score_one(head, np.array([5.0, -2.0, 0.0, 9.0])) == 0.5

    def test_open_interval(self):
        rng = np.random.default_rng(2)
        head = random_head(rng, 5)
        for _ in range(50):
            s = score_one(head, rng.standard_normal(5))
            assert 0.0 < s < 1.0

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(4)
        head = random_head(rng, 8)
        for _ in range(10):
            x = rng.standard_normal(8)
            assert score_one(head, x) == pytest.approx(oracle_score(head, x), abs=1e-12)

    def test_dimension_mismatch(self):
        head = init_head(8, 0)
        with pytest.raises(DimensionMismatch):
            score_segments(head, np.zeros((1, 9)))
        with pytest.raises(DimensionMismatch):
            score_segments(head, np.zeros((4, 9)), starts=[0, 2])
        # a flat array is one embedding, not a bag; only an empty one is a bag
        with pytest.raises(
            DimensionMismatch,
            match=r"segment bag must be a \(segments, dim\) array, got shape \(8,\)",
        ):
            score_segments(head, np.zeros(8))


class TestScoreSegments:
    def test_empty(self):
        head = init_head(8, 0)
        out = score_segments(head, [])
        assert out.shape == (0,)

    def test_identical_embeddings_identical_scores(self):
        head = init_head(8, 0)
        x = np.ones((3, 8))
        out = score_segments(head, x)
        assert out[0] == out[1] == out[2]

    def test_composition_matches_score(self):
        rng = np.random.default_rng(6)
        head = random_head(rng, 8)
        bag = rng.standard_normal((5, 8))
        out = score_segments(head, bag)
        for i in range(5):
            assert out[i] == pytest.approx(score_one(head, bag[i]), abs=1e-15)

    @pytest.mark.parametrize("dim", [4, 8, 62, 118, 4150])
    @pytest.mark.parametrize(
        "lengths",
        [[1, 2, 3, 5, 8, 1, 2], [SCORE_BLOCK_ROWS + 1, 1, 3], [1]],
        ids=["short", "longer-than-a-block", "one-row"],
    )
    def test_stacked_bags_score_as_their_own_calls(self, dim, lengths):
        """Bitwise, at the full 512/32 widths the BLAS kernels see."""
        rng = np.random.default_rng(dim)
        head = ScoringHead(*(
            p + rng.uniform(-0.1, 0.1, p.shape) for p in init_head(dim, 1).params()
        ))
        bags = [rng.standard_normal((n, dim)) for n in lengths]
        starts = np.cumsum(lengths) - lengths
        stacked = score_segments(head, np.concatenate(bags), starts)
        own = np.concatenate([score_segments(head, b) for b in bags])
        assert np.array_equal(stacked, own)

    @pytest.mark.parametrize(
        "starts", [[], [1, 3], [0, 3, 3], [0, 2, 1], [0, 5], [0, 6], [[0, 2]], [0.0, 2.0]]
    )
    def test_starts_must_increase_from_0_within_the_rows(self, starts):
        with pytest.raises(ValueError, match="starts"):
            score_segments(init_head(8, 0), np.zeros((5, 8)), starts)


def loss_at(head, pos, neg, lam1, lam2):
    """Independent objective evaluation used as the finite-difference target."""
    ps = [oracle_score(head, x) for x in pos]
    ns = [oracle_score(head, x) for x in neg]
    hinge = max(0.0, 1.0 - max(ps) + max(ns))
    smooth = sum((ps[i] - ps[i + 1]) ** 2 for i in range(len(ps) - 1))
    return hinge + lam1 * smooth + lam2 * sum(ps)


def one_pair(head, pos, neg, lam1, lam2):
    """`backprop` over one (positive, negative) pair of bags."""
    return backprop(head, np.concatenate((pos, neg)), [0, len(pos)], [[0, 1]], lam1, lam2)


class TestBackprop:
    def test_loss_matches_loss_module(self):
        rng = np.random.default_rng(8)
        head = random_head(rng, 8)
        pos = rng.standard_normal((4, 8))
        neg = rng.standard_normal((3, 8))
        breakdown, _ = one_pair(head, pos, neg, 8e-5, 8e-5)
        via_scores = mil_ranking_loss(
            score_segments(head, pos), score_segments(head, neg), 8e-5, 8e-5
        )
        assert breakdown.total == pytest.approx(via_scores.total, abs=1e-12)
        assert breakdown.hinge == pytest.approx(via_scores.hinge, abs=1e-12)

    def test_empty_bag(self):
        """An empty bag is a `starts` error, as in `score_segments`."""
        head = init_head(8, 0)
        with pytest.raises(ValueError, match="starts"):
            backprop(head, np.ones((2, 8)), [0, 0], [[0, 1]], 0, 0)

    def test_dimension_mismatch(self):
        head = init_head(8, 0)
        with pytest.raises(DimensionMismatch):
            backprop(head, np.zeros((4, 9)), [0, 2], [[0, 1]], 0, 0)

    def test_gradient_shapes_congruent(self):
        rng = np.random.default_rng(10)
        head = random_head(rng, 8)
        _, grads = one_pair(head, rng.standard_normal((2, 8)),
                            rng.standard_normal((2, 8)), 8e-5, 8e-5)
        assert isinstance(grads, ScoringHead)
        for p, g in zip(head.params(), grads.params()):
            assert p.shape == g.shape

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        head = random_head(rng, 5, h1=4, h2=3)
        pos = rng.standard_normal((3, 5))
        neg = rng.standard_normal((2, 5))
        lam1, lam2 = 8e-5, 8e-5
        _, grads = one_pair(head, pos, neg, lam1, lam2)
        step = 1e-5
        for p, g in zip(head.params(), grads.params()):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + step
                up = loss_at(head, pos, neg, lam1, lam2)
                flat_p[idx] = orig - step
                down = loss_at(head, pos, neg, lam1, lam2)
                flat_p[idx] = orig
                fd = (up - down) / (2 * step)
                assert abs(flat_g[idx] - fd) <= max(1e-4 * abs(fd), 1e-7), (
                    f"param entry {idx}: analytic {flat_g[idx]}, fd {fd}"
                )
