"""ROC/AUC evaluation, per-category comparison, and threshold detection.

AUC is the probability that a uniformly random positive segment outscores a
uniformly random negative one, ties counting one half. That definition and
the trapezoidal area under the threshold-sweep ROC curve agree exactly, so
either view can be checked against the other. Evaluation takes only a
ScoredSplit: flat arrays of scores, theft labels and category codes with
per-video offsets.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, LengthMismatch
from .fileio import write_atomic

DEFAULT_THRESHOLD = 0.2
ROC_SVG_SIZE = 400  # pixels, width and height

THEFT_CATEGORY = "PackageTheft"
NORMAL_CATEGORIES = ("Pickup", "Delivery", "Irrelevant")
CATEGORIES = (THEFT_CATEGORY,) + NORMAL_CATEGORIES


def _validate_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LengthMismatch(
            f"scores and labels must be equal-length vectors, "
            f"got {scores.shape} and {labels.shape}"
        )
    if not np.all(np.isin(labels, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(np.int64)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise DegenerateLabels("need at least one positive and one negative label")
    return scores, labels


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank.

    -0.0 and 0.0 tie, and so do all NaNs, which rank above every number.
    """
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a group of c equal scores ending at 1-based rank r averages r - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2)[group.reshape(-1)]


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties = 1/2."""
    scores, labels = _validate_scores_labels(scores, labels)
    ranks = _average_ranks(scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    # rank-sum identity: wins + ties/2, exactly, including the tie halves
    u = float(ranks[labels == 1].sum()) - 0.5 * n_pos * (n_pos + 1)
    return u / (n_pos * n_neg)


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep from (0, 0) to (1, 1); a point = scores >= threshold."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def area(self) -> float:
        """Trapezoidal area under the curve."""
        df = self.fpr[1:] - self.fpr[:-1]
        mid = 0.5 * (self.tpr[1:] + self.tpr[:-1])
        return float(np.sum(df * mid))


def roc_curve(scores, labels) -> RocCurve:
    """Sweep thresholds over the distinct score values, descending.

    The +inf sentinel gives the (0, 0) endpoint; the lowest distinct score
    admits every segment and lands exactly on (1, 1).
    """
    scores, labels = _validate_scores_labels(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of each distinct-score run
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [scores.size - 1]])
    tps = np.cumsum(sorted_labels)[boundaries]
    fps = boundaries + 1 - tps
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    thresholds = np.concatenate([[np.inf], sorted_scores[boundaries]])
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def apply_threshold(scores, threshold: float) -> np.ndarray:
    """Detection flags: score strictly greater than the threshold."""
    return np.asarray(scores, dtype=np.float64) > threshold


@dataclass(frozen=True, eq=False)
class ScoredSplit:
    """A split's evaluated segments as flat arrays, videos back to back.

    Video i owns rows offsets[i]:offsets[i + 1]. `labels` is 1 for a
    theft-annotated segment, else 0; `categories` holds each segment's video
    category as an index into CATEGORIES (-1 for any other name).
    """

    scores: np.ndarray  # (N,) float64
    labels: np.ndarray  # (N,) int64
    categories: np.ndarray  # (N,) int64
    offsets: np.ndarray  # (V + 1,) int64

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class EvalReport:
    overall_auc: float
    per_category_auc: dict[str, float]
    threshold: float
    segment_count: int
    detections_total: int
    detections_theft: int
    detections_normal: int

    def to_dict(self) -> dict:
        return {
            "overall_auc": self.overall_auc,
            "per_category_auc": dict(self.per_category_auc),
            "threshold": self.threshold,
            "segment_count": self.segment_count,
            "detections": {
                "total": self.detections_total,
                "theft_segments": self.detections_theft,
                "normal_segments": self.detections_normal,
            },
        }


def per_category_eval(segments: ScoredSplit, threshold: float = DEFAULT_THRESHOLD) -> EvalReport:
    """Overall AUC plus one AUC per normal category against theft segments.

    Category AUCs compare theft-annotated segments with the segments of
    videos in that category alone, in split order; categories without
    segments are simply absent from the map. Non-theft segments of theft
    videos count only in the overall AUC.
    """
    scores, labels = segments.scores, segments.labels
    overall = auc(scores, labels)

    theft = labels == 1
    theft_scores = scores[theft]
    per_category = {}
    for category in NORMAL_CATEGORIES:
        cat_scores = scores[segments.categories == CATEGORIES.index(category)]
        if cat_scores.size == 0:
            continue
        merged = np.concatenate([theft_scores, cat_scores])
        merged_labels = np.concatenate(
            [np.ones(theft_scores.size, dtype=np.int64),
             np.zeros(cat_scores.size, dtype=np.int64)]
        )
        per_category[category] = auc(merged, merged_labels)

    flags = apply_threshold(scores, threshold)
    return EvalReport(
        overall_auc=overall,
        per_category_auc=per_category,
        threshold=threshold,
        segment_count=len(segments),
        detections_total=int(flags.sum()),
        detections_theft=int(flags[theft].sum()),
        detections_normal=int(flags[~theft].sum()),
    )


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV export: header `threshold,fpr,tpr`, one row per curve point.

    Values are written as `repr` of a Python float: the shortest text that
    reads back to the same float64.
    """
    columns = (map(repr, c.tolist()) for c in (curve.thresholds, curve.fpr, curve.tpr))
    text = "threshold,fpr,tpr\n" + "\n".join(map(",".join, zip(*columns))) + "\n"
    write_atomic(path, [text.encode("utf-8")])


def write_roc_svg(curve: RocCurve, path) -> None:
    """Minimal SVG rendering: unit-square axes plus the ROC polyline."""
    margin = 40
    span = ROC_SVG_SIZE - 2 * margin

    # each takes a float or an array of them
    def sx(v):
        return margin + v * span

    def sy(v):
        return ROC_SVG_SIZE - margin - v * span

    points = " ".join(
        map("{:.2f},{:.2f}".format, sx(curve.fpr).tolist(), sy(curve.tpr).tolist())
    )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{ROC_SVG_SIZE}" height="{ROC_SVG_SIZE}">\n'
        f'  <rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="#999"/>\n'
        f'  <line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#ccc" stroke-dasharray="4 4"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n'
        f'  <text x="{sx(0.5):.2f}" y="{ROC_SVG_SIZE - 10}" text-anchor="middle">'
        f"false positive rate</text>\n"
        f'  <text x="12" y="{sy(0.5):.2f}" text-anchor="middle" '
        f'transform="rotate(-90 12 {sy(0.5):.2f})">true positive rate</text>\n'
        f"</svg>\n"
    )
    write_atomic(path, [svg.encode("utf-8")])
