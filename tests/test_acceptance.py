"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with `pytest -s`) and then
asserts, so the suite doubles as a human-readable report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ptde.cli import build_parser, scored_test_segments
from ptde.data import (
    CLIP_FRAMES,
    load_checkpoint,
    load_manifest,
    load_split_bags,
    save_checkpoint,
)
from ptde.errors import CorruptCheckpoint, PtdeError, UnsupportedVersion
from ptde.fusion import FusionMode
from ptde.loss import mil_ranking_loss, ranking_satisfied
from ptde.metrics import (
    DEFAULT_THRESHOLD,
    NORMAL_CATEGORIES,
    auc,
    per_category_eval,
    roc_curve,
)
from ptde.pose import JOINT_COUNT, JOINT_VALUES, SEGMENT_FEATURE_DIM
from ptde.scoring import HIDDEN1, HIDDEN2, OUTPUT, ScoringHead, backprop, score_segments
from ptde.synth import SynthSpec, generate_synthetic
from ptde.trainer import TrainConfig, train

SMALL_COUNTS = dict(
    train_counts={"PackageTheft": 4, "Pickup": 2, "Delivery": 2, "Irrelevant": 2},
    test_counts={"PackageTheft": 3, "Pickup": 2, "Delivery": 2, "Irrelevant": 2},
)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")


# ----------------------------------------------------------- criterion 1

def _finite_difference_instance(seed: int):
    """Build one random (head, bag pair) instance, or None when any relu /
    argmax kink sits too close to differentiate across."""
    rng = np.random.default_rng([700, seed])
    dim = 8
    bound1 = math.sqrt(6.0 / (dim + HIDDEN1))
    bound2 = math.sqrt(6.0 / (HIDDEN1 + HIDDEN2))
    bound3 = math.sqrt(6.0 / (HIDDEN2 + OUTPUT))
    params = [
        rng.uniform(-bound1, bound1, (dim, HIDDEN1)),
        rng.uniform(-0.3, 0.3, HIDDEN1),
        rng.uniform(-bound2, bound2, (HIDDEN1, HIDDEN2)),
        rng.uniform(-0.3, 0.3, HIDDEN2),
        rng.uniform(-bound3, bound3, (HIDDEN2, OUTPUT)),
        rng.uniform(-0.3, 0.3, OUTPUT),
    ]
    n_pos = int(rng.integers(2, 5))
    n_neg = int(rng.integers(2, 5))
    x = rng.standard_normal((n_pos + n_neg, dim))

    w1, b1, w2, b2, w3, b3 = params
    z1 = x @ w1 + b1
    z2 = np.maximum(z1, 0.0) @ w2 + b2
    z3 = (np.maximum(z2, 0.0) @ w3)[:, 0] + b3[0]
    scores = 1.0 / (1.0 + np.exp(-z3))
    if min(np.min(np.abs(z1)), np.min(np.abs(z2))) < 5e-4:
        return None

    def runner_up_gap(v):
        top = np.sort(v)[-2:]
        return top[1] - top[0]

    p, n = scores[:n_pos], scores[n_pos:]
    if runner_up_gap(p) < 1e-3 or runner_up_gap(n) < 1e-3:
        return None
    if 1.0 - p.max() + n.max() < 1e-3:
        return None
    return params, x, n_pos


def _check_gradients(params, x, n_pos, step=1e-5, lam1=8e-5, lam2=8e-5):
    """Sweep every parameter entry with central finite differences of an
    independent, test-local objective evaluation.

    A nudge of w[i, j] or b[j] in one layer moves only column j of that
    layer's pre-activation. So per column, the pre-activations under all of
    its nudges (both signs) are computed at once, by multiplying the layer
    input, with a ones column for the bias, by the matrix of nudged weight
    columns. The stack is then run forward through the unchanged later
    layers, each perturbed loss from its own forward pass.
    """
    w1, b1, w2, b2, w3, b3 = params
    layers = [(w1, b1), (w2, b2), (w3, b3)]

    def objective(z, layer):
        """Loss per stacked pre-activation z (..., rows, width) of `layer`."""
        for w, b in layers[layer + 1 :]:
            z = np.maximum(z, 0.0) @ w + b
        s = 1.0 / (1.0 + np.exp(-z[..., 0]))
        p, n = s[..., :n_pos], s[..., n_pos:]
        hinge = np.maximum(1.0 - p.max(axis=-1) + n.max(axis=-1), 0.0)
        d = p[..., :-1] - p[..., 1:]
        return hinge + lam1 * (d * d).sum(axis=-1) + lam2 * p.sum(axis=-1)

    head = ScoringHead(*(a.copy() for a in params))
    _, grads = backprop(head, x, [0, n_pos], [[0, 1]], lam1, lam2)
    analytic = grads.params()

    bad = 0
    checked = 0
    a = x
    nudges = np.array([step, -step])[:, None, None]
    for layer, (w, b) in enumerate(layers):
        # the bias is one more weight row, fed by a column of ones
        inputs = np.hstack([a, np.ones((a.shape[0], 1))])
        weights = np.vstack([w, b])
        z = a @ w + b
        fd = np.empty_like(weights)
        for j in range(weights.shape[1]):
            # column i of nudged[s]: weights[:, j] with entry i moved by s
            nudged = weights[:, j, None] + nudges * np.eye(weights.shape[0])
            stack = np.broadcast_to(z, nudged.shape[:2] + z.shape).copy()
            stack[..., j] = np.swapaxes(inputs @ nudged, -1, -2)
            up, down = objective(stack, layer)
            fd[:, j] = (up - down) / (2.0 * step)
        expected = np.vstack([analytic[2 * layer], analytic[2 * layer + 1]])
        bad += int(np.sum(np.abs(expected - fd) > np.maximum(1e-4 * np.abs(fd), 1e-7)))
        checked += fd.size
        a = np.maximum(z, 0.0)
    return bad, checked


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    accepted = 0
    seed = 0
    bad = 0
    checked = 0
    while accepted < 20:
        instance = _finite_difference_instance(seed)
        seed += 1
        if instance is None:
            continue
        accepted += 1
        b, c = _check_gradients(*instance)
        bad += b
        checked += c
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 30.0
    report(
        1,
        "analytic gradients match central finite differences",
        ok,
        f"{checked} entries over {accepted} instances, "
        f"{bad} violations, {elapsed:.1f}s",
    )
    assert bad == 0
    assert elapsed < 30.0


# ----------------------------------------------------------- criterion 2

def test_criterion_2_loss_closed_forms():
    cases = [
        (([1.0, 1.0], [0.0, 0.0]), 1.6e-4),
        (([0.5], [0.5]), 1.00004),
        (([0.2, 0.8], [0.3, 0.1]), 0.5001088),
    ]
    worst = 0.0
    for (pos, neg), expected in cases:
        got = mil_ranking_loss(pos, neg, 8e-5, 8e-5).total
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-9
    report(2, "ranking-loss closed forms reproduce", ok, f"max error {worst:.2e}")
    assert worst <= 1e-9


# ----------------------------------------------------------- criterion 3

def _pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_criterion_3_auc_oracle_equivalence():
    rng = np.random.default_rng(301)
    worst_auc = 0.0
    area_mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:  # coarse grid forces ties
            scores = rng.integers(0, 8, size=n) / 8.0
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        value = auc(scores, labels)
        worst_auc = max(worst_auc, abs(value - _pairwise_auc(scores, labels)))
        area_mismatches += roc_curve(scores, labels).area() != value
    ok = worst_auc <= 1e-12 and area_mismatches == 0
    report(
        3,
        "auc matches the exhaustive pairwise comparator and equals the ROC area",
        ok,
        f"max deviation {worst_auc:.2e}, {area_mismatches} ROC areas unequal, "
        f"over 200 instances",
    )
    assert worst_auc <= 1e-12
    assert area_mismatches == 0


# -------------------------------------------------------- criteria 4 & 5

def _train_and_eval(tmp_dir, separation: float):
    t0 = time.monotonic()
    spec = SynthSpec(seed=7, class_separation=separation, noise_scale=0.1)
    manifest = load_manifest(generate_synthetic(spec, tmp_dir))
    config = TrainConfig(epochs=200, seed=11)  # stock defaults otherwise
    run = train(load_split_bags(manifest, "train", config.fusion_mode), config)
    test_bags = load_split_bags(manifest, "test", config.fusion_mode)
    segments = scored_test_segments(manifest, run.head, config.fusion_mode)
    value = auc(segments.scores, segments.labels)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(
        manifest=manifest, run=run, test_bags=test_bags, auc=value, elapsed=elapsed
    )


@pytest.fixture(scope="module")
def separable_result(tmp_path_factory):
    return _train_and_eval(tmp_path_factory.mktemp("separable"), separation=1.0)


def test_criterion_4_end_to_end_learning(separable_result, tmp_path):
    null_result = _train_and_eval(tmp_path, separation=0.0)
    ok = (
        separable_result.auc >= 0.95
        and abs(null_result.auc - 0.5) <= 0.1
        and separable_result.elapsed < 60.0
        and null_result.elapsed < 60.0
    )
    report(
        4,
        "separable data trains to AUC >= 0.95, zero separation stays near 0.5",
        ok,
        f"separable {separable_result.auc:.4f} in {separable_result.elapsed:.1f}s, "
        f"null {null_result.auc:.4f} in {null_result.elapsed:.1f}s",
    )
    assert separable_result.auc >= 0.95
    assert abs(null_result.auc - 0.5) <= 0.1
    assert separable_result.elapsed < 60.0
    assert null_result.elapsed < 60.0


def test_criterion_5_bag_ranking(separable_result):
    head = separable_result.run.head
    bags = separable_result.test_bags
    scores = [score_segments(head, x) for x in np.split(bags.embeddings, bags.offsets[1:-1])]
    pos = [s for s, positive in zip(scores, bags.is_positive) if positive]
    neg = [s for s, positive in zip(scores, bags.is_positive) if not positive]
    hits = sum(ranking_satisfied(p, n) for p in pos for n in neg)
    fraction = hits / (len(pos) * len(neg))
    ok = fraction >= 0.9
    report(
        5,
        "max positive-bag score beats max negative-bag score",
        ok,
        f"{fraction:.3f} of {len(pos) * len(neg)} test bag pairs",
    )
    assert fraction >= 0.9


# ----------------------------------------------------------- criterion 6

def test_criterion_6_default_constants():
    config = TrainConfig()
    train_args = build_parser().parse_args(
        ["train", "--manifest", "m", "--out-checkpoint", "c"]
    )
    eval_args = build_parser().parse_args(
        ["eval", "--checkpoint", "c", "--manifest", "m"]
    )
    checks = {
        "learning rate 0.01": config.learning_rate == 0.01 == train_args.lr,
        "epochs 5000": config.epochs == 5000 == train_args.epochs,
        "lambda1 8e-5": config.lambda1 == 8e-5 == train_args.lambda1,
        "lambda2 8e-5": config.lambda2 == 8e-5 == train_args.lambda2,
        "threshold 0.2": DEFAULT_THRESHOLD == 0.2 == eval_args.threshold,
        "head 512/32/1": (HIDDEN1, HIDDEN2, OUTPUT) == (512, 32, 1),
        "pose 18x3": (JOINT_COUNT, JOINT_VALUES, SEGMENT_FEATURE_DIM) == (18, 3, 54),
        "clip length 16": CLIP_FRAMES == 16,
    }
    failing = [name for name, good in checks.items() if not good]
    ok = not failing
    report(6, "configuration defaults match the documented constants", ok,
           f"failing: {failing}" if failing else "8 constants checked")
    assert not failing


# ----------------------------------------------------------- criterion 7

def test_criterion_7_determinism_and_persistence(tmp_path):
    spec = SynthSpec(seed=13, feature_dim=8, **SMALL_COUNTS)
    manifest_path = generate_synthetic(spec, tmp_path / "data")
    config = TrainConfig(epochs=10, pairs_per_epoch=4, seed=5)

    def fresh_run():
        manifest = load_manifest(manifest_path)
        bags = load_split_bags(manifest, "train", config.fusion_mode)
        return train(bags, config)

    run1, run2 = fresh_run(), fresh_run()
    histories_identical = np.array_equal(run1.history, run2.history)
    params_identical = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(run1.head.params(), run2.head.params())
    )

    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(run1.head, config, ckpt)
    loaded, meta = load_checkpoint(ckpt)
    round_trip = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(run1.head.params(), loaded.params())
    ) and meta.seed == config.seed and meta.fusion_mode == config.fusion_mode

    raw = ckpt.read_bytes()
    rejected = 0
    corruptions = [
        b"XXXX" + raw[4:],                      # magic
        raw[:4] + b"\x63\x00\x00\x00" + raw[8:],  # version 99
        raw[: len(raw) - 9],                    # truncation
    ]
    for blob in corruptions:
        (tmp_path / "bad.ckpt").write_bytes(blob)
        try:
            load_checkpoint(tmp_path / "bad.ckpt")
        except (CorruptCheckpoint, UnsupportedVersion):
            rejected += 1
        except PtdeError:
            pass

    ok = histories_identical and params_identical and round_trip and rejected == 3
    report(
        7,
        "identical seeds reproduce bit-for-bit; checkpoints round-trip and "
        "reject corruption",
        ok,
        f"history {histories_identical}, params {params_identical}, "
        f"round-trip {round_trip}, {rejected}/3 corruptions rejected",
    )
    assert histories_identical
    assert params_identical
    assert round_trip
    assert rejected == 3


# ----------------------------------------------------------- criterion 8

def test_criterion_8_per_category_evaluation(tmp_path):
    spec = SynthSpec(seed=17, feature_dim=8, **SMALL_COUNTS)
    manifest = load_manifest(generate_synthetic(spec, tmp_path))
    config = TrainConfig(
        epochs=20, pairs_per_epoch=6, seed=2,
        fusion_mode=FusionMode.GLOBAL_LOCAL_CONCAT,
    )
    run = train(load_split_bags(manifest, "train", config.fusion_mode), config)
    segments = scored_test_segments(manifest, run.head, config.fusion_mode)
    rep = per_category_eval(segments)

    keys_ok = set(rep["per_category_auc"]) == set(NORMAL_CATEGORIES)
    theft_scores = segments.scores[segments.labels == 1].tolist()
    # each video's scores, with its category from the manifest record
    videos = [
        (rec.category, segments.scores[start:stop].tolist())
        for rec, start, stop in zip(
            manifest.split_records("test"), segments.offsets[:-1], segments.offsets[1:]
        )
    ]
    worst = 0.0
    for category in NORMAL_CATEGORIES:
        cat_scores = [s for c, scores in videos if c == category for s in scores]
        expected = _pairwise_auc(
            np.array(theft_scores + cat_scores),
            np.array([1] * len(theft_scores) + [0] * len(cat_scores)),
        )
        worst = max(worst, abs(rep["per_category_auc"][category] - expected))
    ok = keys_ok and worst <= 1e-12
    report(
        8,
        "per-category report covers exactly the three normal categories and "
        "matches the restricted oracle",
        ok,
        f"keys {sorted(rep['per_category_auc'])}, max deviation {worst:.2e}",
    )
    assert keys_ok
    assert worst <= 1e-12
