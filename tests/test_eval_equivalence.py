"""The array-based evaluation path against the per-segment path it replaced.

The oracle is a test-local copy of the earlier code: `scored_test_segments`
built one ScoredSegment-like object per segment, `per_category_eval`
scanned that list once per category, `auc` summed average ranks,
`roc_curve` swept a stable sort and took a float trapezoid for its area,
and the ROC writers formatted one numpy scalar at a time. `ptde eval`
stdout and the `ptde roc` CSV/SVG bytes must be identical to what that
code produced.
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from ptde import cli
from ptde.cli import SCORE_BLOCK_ROWS, main, scored_test_segments
from ptde.data import (
    load_checkpoint,
    load_manifest,
    load_video_bag,
    save_checkpoint,
    write_feature_file,
)
from ptde.errors import MissingGroundTruth
from ptde.fusion import FusionMode
from ptde.metrics import (
    CATEGORIES,
    DEFAULT_THRESHOLD,
    NORMAL_CATEGORIES,
    ScoredSplit,
    auc,
    per_category_eval,
    roc_curve,
    write_roc_csv,
    write_roc_svg,
)
from ptde.scoring import ScoringHead, init_head, score_segments
from ptde.trainer import TrainConfig

TINY = [
    "--dim", "8",
    "--train-theft", "4", "--train-pickup", "2",
    "--train-delivery", "2", "--train-irrelevant", "1",
    "--test-theft", "3", "--test-pickup", "1",
    "--test-delivery", "2", "--test-irrelevant", "1",
]


# ---------------------------------------------------------------- oracle

@dataclass(frozen=True)
class _Segment:
    score: float
    is_theft: bool
    category: str


def old_auc(scores, labels):
    """Rank-sum AUC over average ranks; NaNs tie, above every number."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group.reshape(-1)]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    u = float(ranks[labels == 1].sum()) - 0.5 * n_pos * (n_pos + 1)
    return u / (n_pos * n_neg)


class OldRocCurve(NamedTuple):
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def area(self):
        df = self.fpr[1:] - self.fpr[:-1]
        mid = 0.5 * (self.tpr[1:] + self.tpr[:-1])
        return float(np.sum(df * mid))


def old_roc_curve(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [scores.size - 1]])
    tps = np.cumsum(labels[order])[boundaries]
    fps = boundaries + 1 - tps
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return OldRocCurve(
        thresholds=np.concatenate([[np.inf], sorted_scores[boundaries]]),
        fpr=np.concatenate([[0.0], fps / n_neg]),
        tpr=np.concatenate([[0.0], tps / n_pos]),
    )


def old_scored_test_segments(manifest, head, fusion_mode):
    segments = []
    for rec in manifest.split_records("test"):
        scores = score_segments(head, load_video_bag(manifest, rec.video_id, fusion_mode))
        if rec.is_positive:
            if rec.annotations is None:
                raise MissingGroundTruth(
                    f"test video {rec.video_id!r} has no segment annotations"
                )
            labels = rec.annotations
        else:
            labels = (0,) * len(scores)
        for s, label in zip(scores, labels):
            segments.append(
                _Segment(score=float(s), is_theft=bool(label), category=rec.category)
            )
    return segments


def old_per_category_eval(segments, threshold=DEFAULT_THRESHOLD):
    segments = list(segments)
    scores = np.array([s.score for s in segments], dtype=np.float64)
    labels = np.array([1 if s.is_theft else 0 for s in segments], dtype=np.int64)
    overall = old_auc(scores, labels)

    theft_scores = scores[labels == 1]
    per_category = {}
    for category in NORMAL_CATEGORIES:
        cat_scores = np.array(
            [s.score for s in segments if s.category == category], dtype=np.float64
        )
        if cat_scores.size == 0:
            continue
        merged = np.concatenate([theft_scores, cat_scores])
        merged_labels = np.concatenate(
            [np.ones(theft_scores.size, dtype=np.int64),
             np.zeros(cat_scores.size, dtype=np.int64)]
        )
        per_category[category] = old_auc(merged, merged_labels)

    flags = scores > threshold
    return {
        "overall_auc": overall,
        "per_category_auc": per_category,
        "threshold": threshold,
        "segment_count": len(segments),
        "detections": {
            "total": int(flags.sum()),
            "theft_segments": int(flags[labels == 1].sum()),
            "normal_segments": int(flags[labels == 0].sum()),
        },
    }


def old_roc_csv(curve) -> bytes:
    lines = ["threshold,fpr,tpr"]
    lines += (f"{t},{f},{r}" for t, f, r in zip(curve.thresholds, curve.fpr, curve.tpr))
    return ("\n".join(lines) + "\n").encode("utf-8")


def old_roc_svg(curve, size=400) -> bytes:
    margin = 40
    span = size - 2 * margin

    def sx(v):
        return margin + v * span

    def sy(v):
        return size - margin - v * span

    points = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t in zip(curve.fpr, curve.tpr))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">\n'
        f'  <rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="#999"/>\n'
        f'  <line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#ccc" stroke-dasharray="4 4"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n'
        f'  <text x="{sx(0.5):.2f}" y="{size - 10}" text-anchor="middle">'
        f"false positive rate</text>\n"
        f'  <text x="12" y="{sy(0.5):.2f}" text-anchor="middle" '
        f'transform="rotate(-90 12 {sy(0.5):.2f})">true positive rate</text>\n'
        f"</svg>\n"
    )
    return svg.encode("utf-8")


def old_outputs(manifest_path, checkpoint):
    """(eval stdout, roc stdout, CSV bytes, SVG bytes) of the earlier code."""
    head, meta = load_checkpoint(checkpoint)
    segments = old_scored_test_segments(
        load_manifest(manifest_path), head, meta.fusion_mode
    )
    report = old_per_category_eval(segments)
    curve = old_roc_curve(
        [s.score for s in segments], [1 if s.is_theft else 0 for s in segments]
    )
    return (
        json.dumps(report, indent=2) + "\n",
        f"auc {curve.area():.6f}\n",
        old_roc_csv(curve),
        old_roc_svg(curve),
    )


def new_outputs(manifest_path, checkpoint, out_dir, capsys):
    """The same four outputs from `ptde eval` and `ptde roc`."""
    common = ["--checkpoint", str(checkpoint), "--manifest", str(manifest_path)]
    capsys.readouterr()
    assert main(["eval", *common]) == 0
    eval_out = capsys.readouterr().out
    csv, svg = out_dir / "roc.csv", out_dir / "roc.svg"
    assert main(["roc", *common, "--out-csv", str(csv), "--out-svg", str(svg)]) == 0
    roc_out = capsys.readouterr().out
    return eval_out, roc_out, csv.read_bytes(), svg.read_bytes()


# ------------------------------------------------------------- datasets

@pytest.fixture(scope="module")
def synth_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("eq-synth")
    assert main(["synth", "--out-dir", str(root), "--seed", "9", *TINY]) == 0
    return root / "manifest.json"


@pytest.mark.parametrize("fusion", [m.value for m in FusionMode])
def test_synth_outputs_identical(synth_manifest, fusion, tmp_path, capsys):
    checkpoint = tmp_path / "m.ckpt"
    assert main([
        "train", "--manifest", str(synth_manifest), "--out-checkpoint", str(checkpoint),
        "--epochs", "5", "--pairs-per-epoch", "3", "--seed", "2", "--fusion", fusion,
    ]) == 0
    assert new_outputs(synth_manifest, checkpoint, tmp_path, capsys) == old_outputs(
        synth_manifest, checkpoint
    )


def _one_clip_dataset(root):
    """One 16-frame clip per segment, clips drawn from three distinct
    vectors, so scores tie within and across videos and categories; the
    test split has no Irrelevant video."""
    rng = np.random.default_rng(5)
    pool = rng.standard_normal((3, 4)).astype(np.float32)
    videos = []
    layout = [("PackageTheft", 3), ("Pickup", 2), ("Delivery", 2)]
    for category, count in layout:
        for k in range(count):
            vid = f"test_{category.lower()}_{k}"
            n = int(rng.integers(1, 7))
            clips = pool[rng.integers(0, 3, size=n)]
            write_feature_file(root / f"{vid}.ptdf", clips)
            record = {"id": vid, "split": "test", "category": category,
                      "feature_file": f"{vid}.ptdf"}
            if category == "PackageTheft":
                ann = [0] * n
                ann[int(rng.integers(0, n))] = 1
                record["annotations"] = ann
            videos.append(record)
    manifest = {"name": "one-clip", "feature_dim": 4, "clip_length": 16,
                "segment_length": 16, "videos": videos}
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def test_one_clip_segments_with_tied_scores(tmp_path, capsys):
    manifest_path = _one_clip_dataset(tmp_path)
    checkpoint = tmp_path / "m.ckpt"
    save_checkpoint(
        init_head(4, seed=3),
        TrainConfig(seed=3, fusion_mode=FusionMode.GLOBAL_ONLY),
        checkpoint,
    )
    head, meta = load_checkpoint(checkpoint)
    segments = old_scored_test_segments(
        load_manifest(manifest_path), head, meta.fusion_mode
    )
    scores = [s.score for s in segments]
    assert len(set(scores)) < len(scores)  # the dataset does tie
    assert new_outputs(manifest_path, checkpoint, tmp_path, capsys) == old_outputs(
        manifest_path, checkpoint
    )


# ------------------------------------------ blocks of whole test videos

def test_4150d_corpus_with_one_row_videos(tmp_path, capsys):
    """Extractor-width features, 1-row videos among the test split, and
    more test rows than one scoring block."""
    root = tmp_path / "data"
    assert main([
        "synth", "--out-dir", str(root), "--seed", "3", "--dim", "4096",
        "--segments-min", "1", "--train-theft", "2", "--train-pickup", "1",
        "--train-delivery", "1", "--train-irrelevant", "1", "--test-theft", "16",
        "--test-pickup", "16", "--test-delivery", "16", "--test-irrelevant", "16",
    ]) == 0
    manifest_path = root / "manifest.json"
    counts = [r.num_segments for r in load_manifest(manifest_path).split_records("test")]
    assert 1 in counts and sum(counts) > SCORE_BLOCK_ROWS
    checkpoint = tmp_path / "m.ckpt"
    assert main([
        "train", "--manifest", str(manifest_path), "--out-checkpoint", str(checkpoint),
        "--epochs", "3", "--pairs-per-epoch", "3", "--seed", "2",
    ]) == 0
    assert new_outputs(manifest_path, checkpoint, tmp_path, capsys) == old_outputs(
        manifest_path, checkpoint
    )


def test_blocks_end_on_video_boundaries(tmp_path, monkeypatch):
    """Videos join a block while it stays within SCORE_BLOCK_ROWS rows; a
    longer one is scored alone; a video with no segment adds no row."""
    b = SCORE_BLOCK_ROWS
    lengths = [b - 100, 0, 100, 1, b + 44, 2, b - 2, 3]
    rng = np.random.default_rng(8)
    videos = []
    for k, n in enumerate(lengths):
        vid = f"test_{k}"
        # two clips per segment; a single clip makes no segment
        write_feature_file(tmp_path / f"{vid}.ptdf", rng.standard_normal((2 * n or 1, 4)))
        record = {"id": vid, "split": "test", "feature_file": f"{vid}.ptdf",
                  "category": "PackageTheft" if k % 2 else "Pickup"}
        if k % 2:
            record["annotations"] = [int(k % 3 == 0)] * n
        videos.append(record)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "name": "blocks", "feature_dim": 4, "clip_length": 16, "segment_length": 32,
        "videos": videos,
    }), encoding="utf-8")
    manifest, head = load_manifest(path), init_head(4, seed=3)

    calls = []

    def recorded(head, x, starts=None):
        calls.append((len(x), None if starts is None else list(starts)))
        return score_segments(head, x, starts)

    monkeypatch.setattr(cli, "score_segments", recorded)
    split = scored_test_segments(manifest, head, FusionMode.GLOBAL_ONLY)
    assert calls == [(b, [0, b - 100]), (1, None), (b + 44, None), (b, [0, 2]), (3, None)]
    own = [
        score_segments(head, load_video_bag(manifest, v["id"], FusionMode.GLOBAL_ONLY))
        for v, n in zip(videos, lengths) if n
    ]
    assert np.array_equal(split.scores, np.concatenate(own))
    assert split.offsets.tolist() == np.cumsum([0] + lengths).tolist()


# ------------------------------------------------------- arrays and curves

SPECIAL = [-0.0, 0.0, 5e-324, 1e-20, 1e16, 0.1, 0.2, 1 / 3, 0.5, 1.0]
score_values = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)
labelled = st.lists(st.tuples(score_values, st.booleans()), min_size=0, max_size=40)


def test_small_matrix_widths_score_within_1e_13():
    """At embedding widths of about 386-974, OpenBLAS can give a short
    bag's own product to its small-matrix kernel, which sums in another
    order than the stacked gemm, so there a stacked bag's scores are held
    to 1e-13 relative of its own call's, not bitwise (up to 7e-15 seen)."""
    dim = 512
    rng = np.random.default_rng(dim)
    head = ScoringHead(*(
        p + rng.uniform(-0.1, 0.1, p.shape) for p in init_head(dim, 1).params()
    ))
    lengths = rng.integers(1, 9, size=40)
    bags = [rng.standard_normal((n, dim)) for n in lengths]
    stacked = score_segments(head, np.concatenate(bags), np.cumsum(lengths) - lengths)
    own = np.concatenate([score_segments(head, b) for b in bags])
    assert np.all(np.abs(stacked - own) <= 1e-13 * np.abs(own))


@pytest.fixture(scope="module")
def roc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roc")


@settings(max_examples=200, deadline=None)
@given(labelled, score_values)
def test_roc_files_identical(roc_dir, pairs, extra):
    # one segment of each class, so the curve is defined
    pairs = pairs + [(extra, True), (extra, False)]
    curve = roc_curve([s for s, _ in pairs], [int(t) for _, t in pairs])
    write_roc_csv(curve, roc_dir / "roc.csv")
    write_roc_svg(curve, roc_dir / "roc.svg")
    assert (roc_dir / "roc.csv").read_bytes() == old_roc_csv(curve)
    assert (roc_dir / "roc.svg").read_bytes() == old_roc_svg(curve)


@pytest.mark.parametrize("score", SPECIAL)
def test_single_distinct_score(tmp_path, score):
    curve = roc_curve([score] * 4, [1, 0, 0, 1])
    write_roc_csv(curve, tmp_path / "roc.csv")
    write_roc_svg(curve, tmp_path / "roc.svg")
    assert (tmp_path / "roc.csv").read_bytes() == old_roc_csv(curve)
    assert (tmp_path / "roc.svg").read_bytes() == old_roc_svg(curve)


@settings(max_examples=200, deadline=None)
@given(
    # a name outside CATEGORIES counts only in the overall AUC
    st.lists(st.tuples(score_values, st.booleans(),
                       st.sampled_from(CATEGORIES + ("Other",))),
             min_size=0, max_size=40),
    score_values,
    st.floats(min_value=0.0, max_value=1.0),
)
def test_per_category_eval_identical(rows, extra, threshold):
    rows = rows + [(extra, True, "PackageTheft"), (extra, False, "Pickup")]
    segments = [_Segment(s, t, c) for s, t, c in rows]
    split = ScoredSplit(
        scores=np.array([s for s, _, _ in rows], dtype=np.float64),
        labels=np.array([int(t) for _, t, _ in rows], dtype=np.int64),
        categories=np.array(
            [CATEGORIES.index(c) if c in CATEGORIES else -1 for _, _, c in rows],
            dtype=np.int64,
        ),
        offsets=np.array([0, len(rows)], dtype=np.int64),
    )
    # a theft-labelled row of a normal-category video, which no manifest can
    # give, counts once, as theft, and not as a segment of its category
    as_theft = [
        _Segment(s.score, s.is_theft, "Other")
        if s.is_theft and s.category in NORMAL_CATEGORIES else s
        for s in segments
    ]
    expected = json.dumps(old_per_category_eval(as_theft, threshold))
    assert json.dumps(per_category_eval(split, threshold)) == expected


# ---------------------------------------------- one sweep for every AUC

# a small value set forces ties; 0.0 and 1.0 are saturated sigmoid outputs
TIED = [-0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
tied_rows = st.lists(
    st.tuples(st.sampled_from(TIED), st.booleans()), min_size=0, max_size=300
)


def assert_same_as_old(scores, labels):
    curve, old = roc_curve(scores, labels), old_roc_curve(scores, labels)
    assert np.array_equal(curve.thresholds, old.thresholds)
    assert np.array_equal(curve.fpr, old.fpr)
    assert np.array_equal(curve.tpr, old.tpr)
    # exact, where the trapezoid is only within rounding of it
    assert curve.area() == auc(scores, labels) == old_auc(scores, labels)
    assert abs(curve.area() - old.area()) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(tied_rows, st.one_of(st.sampled_from(TIED), st.floats(0, 1)))
def test_auc_and_curve_match_rank_sum_and_trapezoid(rows, extra):
    rows = rows + [(extra, True), (extra, False)]
    assert_same_as_old([s for s, _ in rows], [int(t) for _, t in rows])


@settings(max_examples=100, deadline=None)
@given(labelled, score_values)
def test_auc_and_curve_match_on_any_finite_scores(rows, extra):
    rows = rows + [(extra, True), (extra, False)]
    assert_same_as_old([s for s, _ in rows], [int(t) for _, t in rows])


def test_auc_and_curve_match_at_1e5_rows():
    rng = np.random.default_rng(12)
    n = 100_000
    # a 1/1024 grid ties most scores; a tenth saturate at 0.0 or 1.0
    scores = np.round(rng.random(n) * 1024) / 1024
    saturated = rng.random(n) < 0.1
    scores[saturated] = rng.integers(0, 2, size=int(saturated.sum()))
    labels = (rng.random(n) < scores * 0.5 + 0.1).astype(np.int64)
    assert_same_as_old(scores, labels)


def test_nans_tie_in_the_first_step():
    scores = [np.nan, 0.5, np.nan, 0.1]
    labels = [1, 1, 0, 0]
    # NaN vs NaN ties, NaN beats 0.1, 0.5 loses to NaN and beats 0.1
    assert auc(scores, labels) == old_auc(scores, labels) == 2.5 / 4
    curve = roc_curve(scores, labels)
    assert np.array_equal(curve.thresholds, [np.inf, np.nan, 0.5, 0.1], equal_nan=True)
    assert curve.tps.tolist() == [0, 1, 2, 2]
    assert curve.fps.tolist() == [0, 1, 1, 2]
    assert curve.area() == 2.5 / 4
