from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptde.errors import DegenerateLabels, LengthMismatch
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


def pairwise_auc(scores, labels):
    """Exhaustive O(n^2) comparison: wins plus half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def random_instance(rng, max_size=200):
    """Scores drawn from a coarse grid so ties actually occur."""
    n = int(rng.integers(2, max_size + 1))
    if rng.random() < 0.5:
        scores = rng.integers(0, 10, size=n) / 10.0
    else:
        scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores, labels


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_half_right(self):
        # pairs: 0.8 > 0.6 correct, 0.4 < 0.6 wrong
        assert auc([0.8, 0.6, 0.4], [1, 0, 1]) == 0.5

    def test_tie_half_credit(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            auc([0.1, 0.2], [1])

    def test_bad_label_values(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 2])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            scores, labels = random_instance(rng)
            assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)),
            min_size=2,
            max_size=40,
        ).filter(lambda rows: 0 < sum(l for _, l in rows) < len(rows))
    )
    def test_label_inversion_sums_to_one(self, rows):
        scores = [s for s, _ in rows]
        labels = [l for _, l in rows]
        inverted = [1 - l for l in labels]
        assert auc(scores, labels) + auc(scores, inverted) == 1.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        # dyadic scores keep 2x + 3 exact, so ranks are provably unchanged
        scores = rng.integers(0, 256, size=100) / 256.0
        labels = rng.integers(0, 2, size=100)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == auc(2.0 * scores + 3.0, labels)


class TestRocCurve:
    def test_perfect_separation_hits_corner(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert np.any((curve.fpr == 0.0) & (curve.tpr == 1.0))

    def test_endpoints(self):
        rng = np.random.default_rng(0)
        scores, labels = random_instance(rng, max_size=50)
        curve = roc_curve(scores, labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert curve.thresholds[0] == np.inf

    def test_monotone_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            scores, labels = random_instance(rng, max_size=60)
            curve = roc_curve(scores, labels)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)

    def test_area_equals_auc(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores, labels = random_instance(rng)
            curve = roc_curve(scores, labels)
            assert curve.area() == auc(scores, labels)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(7)
        scores = rng.random(10_000)
        labels = rng.integers(0, 2, size=10_000)
        assert abs(roc_curve(scores, labels).area() - 0.5) < 0.03

    def test_all_tied_scores(self):
        curve = roc_curve([0.4, 0.4, 0.4], [1, 0, 1])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]
        assert curve.area() == 0.5


class Segment(NamedTuple):
    score: float
    is_theft: bool
    category: str


def split(segments):
    """The ScoredSplit of a list of Segment rows, taken as one video."""
    return ScoredSplit(
        np.array([s.score for s in segments], dtype=np.float64),
        np.array([int(s.is_theft) for s in segments], dtype=np.int64),
        np.array([CATEGORIES.index(s.category) for s in segments], dtype=np.int64),
        np.array([0, len(segments)], dtype=np.int64),
    )


class TestApplyThreshold:
    """A segment is detected when its score is strictly above the threshold."""

    def test_strict_boundary(self):
        segments = [
            Segment(0.1, False, "Pickup"),
            Segment(0.2, True, "PackageTheft"),  # exactly at threshold
            Segment(0.3, False, "Delivery"),
        ]
        report = per_category_eval(split(segments), threshold=0.2)
        assert report["detections"] == {
            "total": 1, "theft_segments": 0, "normal_segments": 1,
        }

    def test_empty(self):
        segments = [Segment(0.5, True, "PackageTheft"), Segment(0.1, False, "Pickup")]
        # every score below the threshold: no detection
        report = per_category_eval(split(segments), threshold=0.9)
        assert report["detections"] == {
            "total": 0, "theft_segments": 0, "normal_segments": 0,
        }

    def test_all_above(self):
        segments = [Segment(0.5, False, "Irrelevant"), Segment(0.9, True, "PackageTheft")]
        report = per_category_eval(split(segments), threshold=0.1)
        assert report["detections"] == {
            "total": 2, "theft_segments": 1, "normal_segments": 1,
        }


class TestPerCategoryEval:
    def test_single_category_present(self):
        segments = [
            Segment(0.9, True, "PackageTheft"),
            Segment(0.1, False, "Delivery"),
        ]
        report = per_category_eval(split(segments))
        assert set(report["per_category_auc"]) == {"Delivery"}

    def test_perfect_scores_give_ones(self):
        segments = [Segment(1.0, True, "PackageTheft")]
        for cat in NORMAL_CATEGORIES:
            segments += [Segment(0.0, False, cat)] * 3
        report = per_category_eval(split(segments))
        assert report["overall_auc"] == 1.0
        assert set(report["per_category_auc"]) == set(NORMAL_CATEGORIES)
        assert all(v == 1.0 for v in report["per_category_auc"].values())

    def test_against_restricted_oracle(self):
        rng = np.random.default_rng(11)
        segments = []
        for _ in range(40):
            segments.append(Segment(float(rng.random()), True, "PackageTheft"))
            segments.append(Segment(float(rng.random()), False, "PackageTheft"))
            for cat in NORMAL_CATEGORIES:
                segments.append(Segment(float(rng.random()), False, cat))
        report = per_category_eval(split(segments))
        theft_scores = [s.score for s in segments if s.is_theft]
        for cat in NORMAL_CATEGORIES:
            cat_scores = [s.score for s in segments if s.category == cat]
            expected = pairwise_auc(
                np.array(theft_scores + cat_scores),
                np.array([1] * len(theft_scores) + [0] * len(cat_scores)),
            )
            assert abs(report["per_category_auc"][cat] - expected) <= 1e-12
        all_scores = [s.score for s in segments]
        all_labels = [1 if s.is_theft else 0 for s in segments]
        assert abs(report["overall_auc"] - pairwise_auc(np.array(all_scores), np.array(all_labels))) <= 1e-12

    def test_matches_theft_first_merge(self):
        """Each category AUC taken from masks of the split equals the one of
        a theft-first merged copy, on interleaved categories with NaN, -0.0
        and tied scores."""

        def merged_category_aucs(segments):
            theft_scores = segments.scores[segments.labels == 1]
            aucs = {}
            for category in NORMAL_CATEGORIES:
                code = CATEGORIES.index(category)
                cat_scores = segments.scores[segments.categories == code]
                if cat_scores.size:
                    aucs[category] = auc(
                        np.concatenate([theft_scores, cat_scores]),
                        np.repeat([1, 0], [theft_scores.size, cat_scores.size]),
                    )
            return aucs

        rng = np.random.default_rng(20)
        grid = np.array([np.nan, -0.0, 0.0, 0.25, 0.5, 1.0])
        for _ in range(200):
            n = int(rng.integers(2, 40))
            categories = rng.integers(0, len(CATEGORIES), size=n)
            categories[:2] = [0, int(rng.integers(1, len(CATEGORIES)))]
            rng.shuffle(categories)
            labels = np.where(categories == 0, rng.integers(0, 2, size=n), 0)
            labels[np.flatnonzero(categories == 0)[0]] = 1
            scores = np.where(rng.random(n) < 0.5, rng.choice(grid, n), rng.random(n))
            segments = ScoredSplit(scores, labels, categories, np.array([0, n]))
            report = per_category_eval(segments)
            expected = merged_category_aucs(segments)
            assert list(report["per_category_auc"]) == list(expected)
            for category, value in expected.items():
                assert report["per_category_auc"][category] == value

    def test_no_theft_segments_is_fatal(self):
        segments = [Segment(0.5, False, "Pickup"), Segment(0.2, False, "Delivery")]
        with pytest.raises(DegenerateLabels):
            per_category_eval(split(segments))

    def test_detection_counts(self):
        segments = [
            Segment(0.9, True, "PackageTheft"),
            Segment(0.21, False, "Pickup"),
            Segment(0.2, False, "Pickup"),  # exactly at threshold: no detection
            Segment(0.05, False, "Delivery"),
        ]
        report = per_category_eval(split(segments), threshold=0.2)
        assert report["threshold"] == 0.2
        assert report["segment_count"] == 4
        assert report["detections"] == {
            "total": 2, "theft_segments": 1, "normal_segments": 1,
        }

    def test_report_dict_shape(self):
        segments = [
            Segment(0.9, True, "PackageTheft"),
            Segment(0.1, False, "Irrelevant"),
        ]
        d = per_category_eval(split(segments))
        assert d["threshold"] == DEFAULT_THRESHOLD
        # `ptde eval` prints the keys in this order
        assert list(d) == [
            "overall_auc", "per_category_auc", "threshold",
            "segment_count", "detections",
        ]
        assert list(d["detections"]) == ["total", "theft_segments", "normal_segments"]


class TestExports:
    def test_csv(self, tmp_path):
        curve = roc_curve([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0])
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == curve.fpr.size + 1
        t, f, r = lines[-1].split(",")
        assert float(f) == 1.0 and float(r) == 1.0

    @pytest.mark.parametrize(
        "scores, labels",
        [
            # tied scores, -0.0 tying 0.0
            ([0.5, 0.5, 0.0, -0.0, 0.5, 0.0, 1.0, 1.0], [1, 0, 1, 0, 0, 0, 1, 0]),
            # a single positive
            ([0.3, 0.9, 0.1, 0.7, 0.2], [0, 0, 0, 1, 0]),
            # about 10^4 curve points
            (
                np.random.default_rng(7).random(10_000),
                (np.random.default_rng(8).random(10_000) < 0.2).astype(int),
            ),
        ],
    )
    def test_csv_matches_per_value_writer(self, tmp_path, scores, labels):
        curve = roc_curve(scores, labels)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        # the writer it replaced: `repr` of every value of every column
        columns = (map(repr, c.tolist()) for c in (curve.thresholds, curve.fpr, curve.tpr))
        text = "threshold,fpr,tpr\n" + "\n".join(map(",".join, zip(*columns))) + "\n"
        assert path.read_bytes() == text.encode("utf-8")

    def test_svg(self, tmp_path):
        curve = roc_curve([0.9, 0.5, 0.1], [1, 0, 0])
        path = tmp_path / "roc.svg"
        write_roc_svg(curve, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert "polyline" in text
