import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptde.errors import EmptyBag, EmptyBatch, NegativeLambda
from ptde.loss import (
    loss_score_gradients,
    mil_ranking_loss,
    ranking_satisfied,
)

scores_01 = st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8)
scores_open = st.lists(
    st.floats(1e-6, 1.0 - 1e-6, allow_nan=False), min_size=1, max_size=8
)


def _oracle_total(pos, neg, lam1, lam2):
    """Plain-Python re-evaluation of the pair objective."""
    hinge = max(0.0, 1.0 - max(pos) + max(neg))
    smooth = sum((pos[i] - pos[i + 1]) ** 2 for i in range(len(pos) - 1))
    spars = sum(pos)
    return hinge + lam1 * smooth + lam2 * spars


class TestMilRankingLoss:
    def test_perfect_separation(self):
        bd = mil_ranking_loss([1.0, 1.0], [0.0, 0.0], 8e-5, 8e-5)
        assert bd.hinge == 0.0
        assert bd.smoothness == 0.0
        assert bd.sparsity == pytest.approx(1.6e-4, abs=1e-12)
        assert bd.total == pytest.approx(1.6e-4, abs=1e-12)

    def test_equal_maxima(self):
        bd = mil_ranking_loss([0.5], [0.5], 8e-5, 8e-5)
        assert bd.hinge == pytest.approx(1.0, abs=1e-12)
        assert bd.smoothness == 0.0  # single segment, empty sum
        assert bd.sparsity == pytest.approx(4e-5, abs=1e-12)
        assert bd.total == pytest.approx(1.00004, abs=1e-9)

    def test_hand_evaluated_example(self):
        bd = mil_ranking_loss([0.2, 0.8], [0.3, 0.1], 8e-5, 8e-5)
        assert bd.hinge == pytest.approx(0.5, abs=1e-12)
        assert bd.smoothness == pytest.approx(2.88e-5, abs=1e-12)
        assert bd.sparsity == pytest.approx(8e-5, abs=1e-12)
        assert bd.total == pytest.approx(0.5001088, abs=1e-9)

    def test_breakdown_sums_to_total(self):
        bd = mil_ranking_loss([0.4, 0.9, 0.2], [0.3], 0.5, 0.25)
        assert bd.total == bd.hinge + bd.smoothness + bd.sparsity

    def test_empty_bags(self):
        with pytest.raises(EmptyBag):
            mil_ranking_loss([], [0.5], 0, 0)
        with pytest.raises(EmptyBag):
            mil_ranking_loss([0.5], [], 0, 0)

    def test_two_dimensional_scores(self):
        message = r"positive scores must be a flat list, got shape \(1, 2\)"
        with pytest.raises(ValueError, match=message):
            mil_ranking_loss([[0.2, 0.8]], [0.5], 0, 0)

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambda):
            mil_ranking_loss([0.5], [0.5], -1e-5, 0)

    @given(scores_01, scores_01)
    def test_hinge_bounds_and_total_sign(self, pos, neg):
        bd = mil_ranking_loss(pos, neg, 8e-5, 8e-5)
        assert 0.0 <= bd.hinge <= 2.0
        assert bd.total >= 0.0

    @given(scores_open, scores_open)
    def test_hinge_strictly_positive_for_interior_scores(self, pos, neg):
        # max(pos) - max(neg) >= 1 is unreachable for scores inside (0, 1)
        bd = mil_ranking_loss(pos, neg, 0.0, 0.0)
        assert bd.hinge > 0.0

    @given(scores_01, scores_01, st.randoms(use_true_random=False))
    def test_invariant_to_negative_bag_order(self, pos, neg, rand):
        shuffled = list(neg)
        rand.shuffle(shuffled)
        a = mil_ranking_loss(pos, neg, 8e-5, 8e-5)
        b = mil_ranking_loss(pos, shuffled, 8e-5, 8e-5)
        assert a.total == b.total

    def test_sensitive_to_positive_bag_order(self):
        ordered = mil_ranking_loss([0.1, 0.5, 0.9], [0.2], 8e-5, 8e-5)
        shuffled = mil_ranking_loss([0.1, 0.9, 0.5], [0.2], 8e-5, 8e-5)
        assert ordered.total != shuffled.total

    @given(scores_01, scores_01)
    def test_zero_lambdas_reduce_to_hinge(self, pos, neg):
        bd = mil_ranking_loss(pos, neg, 0.0, 0.0)
        assert bd.total == max(0.0, 1.0 - max(pos) + max(neg))

    @given(scores_01, scores_01)
    def test_against_plain_python_oracle(self, pos, neg):
        bd = mil_ranking_loss(pos, neg, 8e-5, 8e-5)
        assert bd.total == pytest.approx(_oracle_total(pos, neg, 8e-5, 8e-5), abs=1e-12)


class TestRankingSatisfied:
    def test_examples(self):
        assert ranking_satisfied([0.9, 0.1], [0.2])
        assert not ranking_satisfied([0.3], [0.3])  # strict inequality

    @given(scores_01, scores_01)
    def test_matches_direct_max(self, pos, neg):
        assert ranking_satisfied(pos, neg) == (max(pos) > max(neg))

    def test_empty(self):
        with pytest.raises(EmptyBag):
            ranking_satisfied([], [0.1])


def batch_objective(pairs, lambda1, lambda2):
    """Mean pair objective: the summed terms of one batched
    mil_ranking_loss call over the flattened pairs, divided by P."""
    pos = [s for p, _ in pairs for s in p]
    neg = [s for _, n in pairs for s in n]
    pos_starts = np.cumsum([0] + [len(p) for p, _ in pairs[:-1]])
    neg_starts = np.cumsum([0] + [len(n) for _, n in pairs[:-1]])
    bd = mil_ranking_loss(pos, neg, lambda1, lambda2, pos_starts, neg_starts)
    return bd.total / len(pairs)


class TestBatchObjective:
    def test_single_pair(self):
        pair = ([0.2, 0.8], [0.3, 0.1])
        assert batch_objective([pair], 8e-5, 8e-5) == (
            mil_ranking_loss(*pair, 8e-5, 8e-5).total
        )

    def test_duplicated_pair_mean_invariance(self):
        pair = ([0.6, 0.4], [0.5])
        single = batch_objective([pair], 8e-5, 8e-5)
        double = batch_objective([pair, pair], 8e-5, 8e-5)
        assert single == double

    def test_three_random_pairs(self):
        rng = np.random.default_rng(7)
        pairs = [
            (rng.uniform(0, 1, 4).tolist(), rng.uniform(0, 1, 3).tolist())
            for _ in range(3)
        ]
        totals = [mil_ranking_loss(p, n, 8e-5, 8e-5).total for p, n in pairs]
        expected = sum(totals) / 3
        assert batch_objective(pairs, 8e-5, 8e-5) == pytest.approx(expected, abs=1e-15)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            mil_ranking_loss([], [], 0, 0, pos_starts=[], neg_starts=[])
        with pytest.raises(EmptyBatch):
            loss_score_gradients([], [], 0, 0, pos_starts=[], neg_starts=[])


class TestBagStarts:
    def test_smoothness_stops_at_bag_boundaries(self):
        # 0.9 -> 0.1 crosses from pair 0's positive bag into pair 1's
        bd = mil_ranking_loss([0.2, 0.9, 0.1, 0.3], [0.5, 0.4], 1.0, 0.0, [0, 2], [0, 1])
        assert bd.smoothness == pytest.approx(0.7**2 + 0.2**2, abs=1e-15)
        dpos, _ = loss_score_gradients(
            [0.2, 0.9, 0.1, 0.3], [0.5, 0.4], 1.0, 0.0, [0, 2], [0, 1]
        )
        alone = [loss_score_gradients(p, n, 1.0, 0.0)[0]
                 for p, n in (([0.2, 0.9], [0.5]), ([0.1, 0.3], [0.4]))]
        np.testing.assert_array_equal(dpos, np.concatenate(alone))

    def test_argmax_ties_stay_in_their_bag(self):
        # both positive bags tie at their maximum: each hits its lowest index
        dpos, dneg = loss_score_gradients(
            [0.7, 0.7, 0.4, 0.4], [0.2, 0.3, 0.3], 0.0, 0.0, [0, 2], [0, 1]
        )
        np.testing.assert_array_equal(dpos, [-1.0, 0.0, -1.0, 0.0])
        np.testing.assert_array_equal(dneg, [1.0, 1.0, 0.0])

    def test_margin_met_exactly_gives_no_hinge_gradient(self):
        dpos, dneg = loss_score_gradients([1.0, 0.6], [0.0, 0.5], 0.0, 0.0, [0, 1], [0, 1])
        np.testing.assert_array_equal(dpos, [0.0, -1.0])
        np.testing.assert_array_equal(dneg, [0.0, 1.0])

    def test_nan_bag_gives_nan_hinge_not_an_argmax(self):
        bd = mil_ranking_loss([0.2, 0.8], [np.nan, 0.1], 0.0, 0.0, [0, 1], [0, 1])
        assert np.isnan(bd.hinge) and np.isnan(bd.total)
        dpos, dneg = loss_score_gradients([0.2, 0.8], [np.nan, 0.1], 0.0, 0.0, [0, 1], [0, 1])
        np.testing.assert_array_equal(dpos, [0.0, -1.0])
        np.testing.assert_array_equal(dneg, [0.0, 1.0])

    @pytest.mark.parametrize(
        "pos_starts, neg_starts, error",
        [
            ([0, 1], [0], ValueError),  # pair counts differ
            ([1], [0], ValueError),  # first bag does not start at 0
            ([0, 0], [0, 1], EmptyBag),  # empty bag
            ([0, 5], [0, 1], EmptyBag),  # bag past the last score
            ([0.0, 1.0], [0, 1], ValueError),  # not integers
            ([0, 1], None, ValueError),  # one side only, pair counts differ
        ],
    )
    def test_invalid_starts(self, pos_starts, neg_starts, error):
        with pytest.raises(error):
            mil_ranking_loss([0.1, 0.2], [0.3, 0.4], 0, 0, pos_starts, neg_starts)


class TestScoreGradients:
    def test_hinge_satisfied_gives_zero_gradient(self):
        # boundary scores meet the margin exactly, so the hinge contributes
        # nothing; with both lambdas 0 the whole gradient vanishes
        dpos, dneg = loss_score_gradients([1.0], [0.0], 0.0, 0.0)
        assert np.array_equal(dpos, [0.0])
        assert np.array_equal(dneg, [0.0])

    def test_active_hinge_hits_argmax_only(self):
        dpos, dneg = loss_score_gradients([0.2, 0.8, 0.8], [0.1, 0.4], 0.0, 0.0)
        # ties resolve to the lowest index
        np.testing.assert_allclose(dpos, [0.0, -1.0, 0.0])
        np.testing.assert_allclose(dneg, [0.0, 1.0])

    @given(
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
    )
    def test_matches_finite_differences(self, pos, neg):
        lam1, lam2 = 0.3, 0.2
        dpos, dneg = loss_score_gradients(pos, neg, lam1, lam2)
        h = 1e-7
        for i in range(len(pos)):
            up, down = list(pos), list(pos)
            up[i] += h
            down[i] -= h
            # skip differentiation across an argmax switch
            if (np.argmax(up) != np.argmax(down)):
                continue
            fd = (_oracle_total(up, neg, lam1, lam2) - _oracle_total(down, neg, lam1, lam2)) / (2 * h)
            assert dpos[i] == pytest.approx(fd, abs=1e-6)
        for j in range(len(neg)):
            up, down = list(neg), list(neg)
            up[j] += h
            down[j] -= h
            if (np.argmax(up) != np.argmax(down)):
                continue
            fd = (_oracle_total(pos, up, lam1, lam2) - _oracle_total(pos, down, lam1, lam2)) / (2 * h)
            assert dneg[j] == pytest.approx(fd, abs=1e-6)


def _separate_sides(pos, neg, pos_starts, neg_starts):
    one_bag = np.zeros(1, dtype=np.intp)
    ps = one_bag if pos_starts is None else np.asarray(pos_starts)
    ns = one_bag if neg_starts is None else np.asarray(neg_starts)
    return np.asarray(pos, dtype=np.float64), ps, np.asarray(neg, dtype=np.float64), ns


def _separate_diffs(pos, ps):
    d = pos[:-1] - pos[1:]
    d[ps[1:] - 1] = 0.0
    return d


def _separate_first_max(scores, starts, maxima):
    rows = np.arange(scores.size)
    at_max = scores == np.repeat(maxima, np.diff(starts, append=scores.size))
    return np.minimum.reduceat(np.where(at_max, rows, scores.size), starts)


def _separate_loss(pos_scores, neg_scores, lambda1, lambda2, pos_starts, neg_starts):
    """The objective as computed apart from its gradient, on valid input."""
    pos, ps, neg, ns = _separate_sides(pos_scores, neg_scores, pos_starts, neg_starts)
    margin = 1.0 - np.maximum.reduceat(pos, ps) + np.maximum.reduceat(neg, ns)
    hinge = float(np.sum(np.maximum(margin, 0.0)))
    d = _separate_diffs(pos, ps)
    smoothness = lambda1 * float(np.sum(d * d))
    sparsity = lambda2 * float(np.sum(pos))
    return hinge, smoothness, sparsity, hinge + smoothness + sparsity


def _separate_gradients(pos_scores, neg_scores, lambda1, lambda2, pos_starts, neg_starts):
    """The score gradients as computed apart from the objective, on valid input."""
    pos, ps, neg, ns = _separate_sides(pos_scores, neg_scores, pos_starts, neg_starts)
    dpos = np.full(pos.shape, lambda2, dtype=np.float64)
    d = _separate_diffs(pos, ps)
    dpos[:-1] += 2.0 * lambda1 * d
    dpos[1:] -= 2.0 * lambda1 * d
    dneg = np.zeros(neg.shape, dtype=np.float64)
    pmax = np.maximum.reduceat(pos, ps)
    nmax = np.maximum.reduceat(neg, ns)
    active = 1.0 - pmax + nmax > 0.0
    dpos[_separate_first_max(pos, ps, pmax)[active]] -= 1.0
    dneg[_separate_first_max(neg, ns, nmax)[active]] += 1.0
    return dpos, dneg


# grid values give tied maxima and margins met exactly (1.0 against 0.0);
# full 53-bit fractions give margins that round
_batch_score = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan]),
    st.floats(-1.0, 2.0),
    st.integers(0, 2**53).map(lambda k: k / 2**53),
)


@st.composite
def _pair_batches(draw):
    """(pos, neg, lambda1, lambda2, pos_starts, neg_starts) of 1-4 pairs; a
    one-pair batch may give its starts as None."""
    pairs = draw(st.integers(1, 4))
    sides = []
    for _ in range(2):
        bags = draw(st.lists(
            st.lists(_batch_score, min_size=1, max_size=5),
            min_size=pairs, max_size=pairs,
        ))
        starts = np.cumsum([0] + [len(b) for b in bags[:-1]])
        if pairs == 1 and draw(st.booleans()):
            starts = None
        sides.append((sum(bags, []), starts))
    (pos, ps), (neg, ns) = sides
    lambdas = st.sampled_from([0.0, 8e-5, 0.3, 1.0])
    return pos, neg, draw(lambdas), draw(lambdas), ps, ns


class TestMatchesSeparatePasses:
    """The value and the gradient, read from one pass of pair terms, are
    bitwise those of the two functions that each computed their own terms."""

    @settings(max_examples=300)
    @given(_pair_batches())
    def test_bitwise_equal(self, batch):
        bd = mil_ranking_loss(*batch)
        fields = np.array([bd.hinge, bd.smoothness, bd.sparsity, bd.total])
        assert fields.tobytes() == np.array(_separate_loss(*batch)).tobytes()
        for got, expected in zip(loss_score_gradients(*batch), _separate_gradients(*batch)):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
