import numpy as np
import pytest

from ptde.data import BagSet
from ptde.errors import (
    InsufficientData,
    NonFiniteLoss,
    ShapeMismatch,
)
from ptde.fusion import FusionMode
from ptde.loss import ranking_satisfied
from ptde.scoring import ScoringHead, score_segments
from ptde.trainer import (
    ADAGRAD_BLOCK_ELEMENTS,
    ADAGRAD_EPSILON,
    TrainConfig,
    adagrad_step,
    train,
    write_run_log,
)


def micro_head():
    return ScoringHead(
        w1=np.array([[1.0, -1.0]]), b1=np.zeros(2),
        w2=np.array([[0.5], [0.25]]), b2=np.zeros(1),
        w3=np.array([[2.0]]), b3=np.zeros(1),
    )


def grads_like(head, value):
    return ScoringHead(*(np.full_like(p, value) for p in head.params()))


def make_bags(rng, n_pos=6, n_neg=6, dim=8, separation=4.0, segments=4):
    """In-memory bags: theft bags contain one shifted-cluster segment."""
    direction = np.zeros(dim)
    direction[0] = 1.0
    arrays = []
    for i in range(n_pos):
        x = rng.standard_normal((segments, dim)) * 0.3
        x[rng.integers(0, segments)] += separation * direction
        arrays.append(x)
    for i in range(n_neg):
        arrays.append(rng.standard_normal((segments, dim)) * 0.3)
    return BagSet(
        np.concatenate(arrays), np.cumsum([0] + [len(x) for x in arrays]),
        np.arange(n_pos + n_neg) < n_pos,
    )


def bag_list(bags):
    """(embeddings, is_positive) of each bag of a BagSet."""
    return list(zip(np.split(bags.embeddings, bags.offsets[1:-1]), bags.is_positive))


def copy_head(head):
    return ScoringHead(*(p.copy() for p in head.params()))


class TestAdagradStep:
    def test_zero_gradient_is_identity(self):
        head = micro_head()
        old_head = copy_head(head)
        sum_sq = grads_like(head, 0.0)
        old_sums = copy_head(sum_sq)
        adagrad_step(head, grads_like(head, 0.0), sum_sq, 0.01)
        for old, new in zip(old_head.params(), head.params()):
            assert np.array_equal(old, new)
        for old, new in zip(old_sums.params(), sum_sq.params()):
            assert np.array_equal(old, new)

    def test_first_step_closed_form(self):
        head = micro_head()
        old_head = copy_head(head)
        g = 0.5
        lr = 0.01
        adagrad_step(head, grads_like(head, g), grads_like(head, 0.0), lr)
        expected_delta = -lr * g / (g + ADAGRAD_EPSILON)  # sqrt(g^2) = g on the first step
        for old, new in zip(old_head.params(), head.params()):
            np.testing.assert_allclose(new - old, expected_delta, rtol=1e-12)

    def test_two_equal_gradients(self):
        head = micro_head()
        g, lr = 0.7, 0.01
        grads = grads_like(head, g)
        sum_sq = grads_like(head, 0.0)
        adagrad_step(head, grads, sum_sq, lr)
        h1 = copy_head(head)
        adagrad_step(head, grads, sum_sq, lr)
        expected_delta = -lr * g / (np.sqrt(2.0 * g * g) + ADAGRAD_EPSILON)
        for a, b in zip(h1.params(), head.params()):
            np.testing.assert_allclose(b - a, expected_delta, rtol=1e-12)

    def test_accumulators_never_decrease(self):
        rng = np.random.default_rng(0)
        head = micro_head()
        sum_sq = grads_like(head, 0.0)
        prev = copy_head(sum_sq)
        for _ in range(10):
            grads = ScoringHead(
                *(rng.standard_normal(p.shape) for p in head.params())
            )
            adagrad_step(head, grads, sum_sq, 0.01)
            for before, after in zip(prev.params(), sum_sq.params()):
                assert np.all(after >= before)
            prev = copy_head(sum_sq)

    def test_in_place_step_matches_the_formula_bitwise(self):
        rng = np.random.default_rng(1)
        head = micro_head()
        sum_sq = grads_like(head, 0.0)
        lr, eps = 0.01, ADAGRAD_EPSILON
        for _ in range(5):
            grads = ScoringHead(*(rng.standard_normal(p.shape) for p in head.params()))
            expected = [
                (p - lr * g / (np.sqrt(s + g * g) + eps), s + g * g)
                for p, g, s in zip(head.params(), grads.params(), sum_sq.params())
            ]
            adagrad_step(head, grads, sum_sq, lr)
            for (p, s), new_p, new_s in zip(
                expected, head.params(), sum_sq.params()
            ):
                assert np.array_equal(p, new_p)
                assert np.array_equal(s, new_s)

    def test_row_blocks_and_divisor_match_the_whole_array_step_bitwise(self):
        # shapes that do not divide into blocks, and a 1-D one over a block
        rng = np.random.default_rng(3)
        rows = ADAGRAD_BLOCK_ELEMENTS // 512
        shapes = [(2 * rows + 37, 512), (ADAGRAD_BLOCK_ELEMENTS + 3,), (513, 32),
                  (32,), (32, 1), (1,)]
        head = ScoringHead(*(rng.standard_normal(s) for s in shapes))
        sum_sq = ScoringHead(*(rng.random(s) for s in shapes))
        lr = 0.01
        for divisor in (30, 7, 1):
            grads = ScoringHead(*(rng.standard_normal(s) for s in shapes))
            expected = []
            for p, g, s in zip(head.params(), grads.params(), sum_sq.params()):
                g = g / divisor
                s = s + g * g
                u = g * lr
                t = np.sqrt(s)
                t += ADAGRAD_EPSILON
                u /= t
                expected.append((p - u, s, g))
            adagrad_step(head, grads, sum_sq, lr, divisor)
            for (p, s, g), new_p, new_s, new_g in zip(
                expected, head.params(), sum_sq.params(), grads.params()
            ):
                assert np.array_equal(p, new_p)
                assert np.array_equal(s, new_s)
                assert np.array_equal(g, new_g)

    def test_shape_mismatch(self):
        head = micro_head()
        bad = grads_like(head, 1.0)
        bad.w1 = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            adagrad_step(head, bad, grads_like(head, 0.0), 0.01)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.01
        assert config.epochs == 5000
        assert config.pairs_per_epoch == 30
        assert config.lambda1 == config.lambda2 == 8e-5
        assert ADAGRAD_EPSILON == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"pairs_per_epoch": 0},
            {"lambda1": -1e-9},
            {"seed": -1},
            # nan <= 0 is False, so an order test alone lets these through
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"lambda1": float("nan")},
            {"lambda2": float("inf")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def quick_config(**overrides):
    defaults = dict(
        epochs=5, pairs_per_epoch=4, seed=3, fusion_mode=FusionMode.GLOBAL_ONLY
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_bitwise_deterministic(self):
        bags = make_bags(np.random.default_rng(1))
        run1 = train(bags, quick_config())
        run2 = train(bags, quick_config())
        assert np.array_equal(run1.history, run2.history)
        for a, b in zip(run1.head.params(), run2.head.params()):
            assert np.array_equal(a, b)

    def test_history_length_single_epoch(self):
        bags = make_bags(np.random.default_rng(2))
        run = train(bags, quick_config(epochs=1))
        assert run.history.shape == (1, 4)

    def test_missing_class(self):
        with pytest.raises(InsufficientData):
            train(make_bags(np.random.default_rng(3), n_neg=0), quick_config())

    def test_empty_split(self):
        with pytest.raises(InsufficientData, match="0 positive / 0 negative"):
            train(BagSet(np.empty((0, 8)), np.zeros(1, dtype=np.int64),
                         np.zeros(0, dtype=bool)), quick_config())

    def test_non_finite_loss_aborts_with_epoch(self):
        rng = np.random.default_rng(5)
        bags = make_bags(rng, n_pos=2, n_neg=2)
        bags.embeddings[: bags.offsets[1]] = np.nan  # the first positive bag
        with pytest.raises(NonFiniteLoss, match="epoch"):
            train(bags, quick_config(epochs=50))

    def test_learns_separable_data(self):
        rng = np.random.default_rng(6)
        bags = make_bags(rng, n_pos=8, n_neg=8)
        run = train(bags, quick_config(epochs=60, pairs_per_epoch=8))
        # fresh bags from the same distribution
        test_bags = bag_list(make_bags(np.random.default_rng(7), n_pos=6, n_neg=6))
        hits = 0
        pairs = 0
        for pb, pb_positive in test_bags:
            if not pb_positive:
                continue
            for nb, nb_positive in test_bags:
                if nb_positive:
                    continue
                pairs += 1
                hits += ranking_satisfied(
                    score_segments(run.head, pb), score_segments(run.head, nb)
                )
        assert hits / pairs >= 0.8

    def test_config_snapshot_is_attached(self):
        bags = make_bags(np.random.default_rng(8))
        config = quick_config()
        run = train(bags, config)
        assert run.config is config  # frozen, so no copy is needed


class TestRunLog:
    def test_format(self, tmp_path):
        bags = make_bags(np.random.default_rng(9))
        run = train(bags, quick_config())
        path = tmp_path / "run.log"
        write_run_log(run, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == run.history.shape[0]
        for epoch, line in enumerate(lines, start=1):
            fields = line.split("\t")
            assert len(fields) == 5
            assert int(fields[0]) == epoch
            total, hinge, smooth, spars = map(float, fields[1:])
            assert total == run.history[epoch - 1, 0]
            assert hinge == run.history[epoch - 1, 1]
            assert smooth == run.history[epoch - 1, 2]
            assert spars == run.history[epoch - 1, 3]
