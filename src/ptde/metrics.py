"""ROC/AUC evaluation, per-category comparison, and threshold detection.

AUC is the probability that a uniformly random positive segment outscores a
uniformly random negative one, ties counting one half. One descending
threshold sweep gives it exactly: with P positives, N negatives and integer
counts tps/fps at each step, AUC = sum(diff(fps) * (tps[1:] + tps[:-1]))
/ (2·P·N), the area under the ROC curve. Evaluation takes only a
ScoredSplit: flat arrays of scores, theft labels and category codes with
per-video offsets.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DegenerateLabels, LengthMismatch
from .fileio import write_atomic

DEFAULT_THRESHOLD = 0.2
ROC_SVG_SIZE = 400  # pixels, width and height
_ROC_CSV_BLOCK_ROWS = 8192  # CSV rows encoded per write

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


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep from (0, 0) to (1, 1); a point = scores >= threshold.

    `tps` and `fps` count the theft and normal segments at or above each
    threshold; the +inf sentinel admits none.
    """

    thresholds: np.ndarray  # (K + 1,) float64, descending
    tps: np.ndarray  # (K + 1,) int64
    fps: np.ndarray  # (K + 1,) int64

    @property
    def fpr(self) -> np.ndarray:
        return self.fps / self.fps[-1]

    @property
    def tpr(self) -> np.ndarray:
        return self.tps / self.tps[-1]

    def area(self) -> float:
        """Exact area: the trapezoids' doubled integer sum over 2·P·N."""
        twice_u = np.sum(np.diff(self.fps) * (self.tps[1:] + self.tps[:-1]))
        return int(twice_u) / (2 * int(self.tps[-1]) * int(self.fps[-1]))


def roc_curve(scores, labels) -> RocCurve:
    """Sweep thresholds over the distinct score values, descending.

    Each step is one run of equal scores: -0.0 ties 0.0, and all NaNs tie
    in the first step, above every number. The +inf sentinel gives the
    (0, 0) endpoint; the lowest step admits every segment and lands
    exactly on (1, 1).
    """
    scores, labels = _validate_scores_labels(scores, labels)
    # ties merge into one step, so the order within a run does not matter
    order = np.argsort(scores)[::-1]
    sorted_scores = scores[order]
    after = sorted_scores[1:]
    # last index of each step
    boundaries = np.flatnonzero((sorted_scores[:-1] != after) & ~np.isnan(after))
    boundaries = np.append(boundaries, scores.size - 1)
    tps = np.cumsum(labels[order])[boundaries]
    return RocCurve(
        thresholds=np.concatenate([[np.inf], sorted_scores[boundaries]]),
        tps=np.concatenate([[0], tps]),
        fps=np.concatenate([[0], boundaries + 1 - tps]),
    )


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties = 1/2.

    It is the exact area under `roc_curve(scores, labels)`.
    """
    return roc_curve(scores, labels).area()


@dataclass(frozen=True, eq=False)
class ScoredSplit:
    """A split's evaluated segments as flat arrays, videos back to back.

    Video i owns rows offsets[i]:offsets[i + 1]. `labels` is 1 for a
    theft-annotated segment, else 0; `categories` holds each segment's video
    category as an index into CATEGORIES.
    """

    scores: np.ndarray  # (N,) float64
    labels: np.ndarray  # (N,) int64
    categories: np.ndarray  # (N,) int64
    offsets: np.ndarray  # (V + 1,) int64

    def __len__(self) -> int:
        return self.scores.size


def per_category_eval(segments: ScoredSplit, threshold: float = DEFAULT_THRESHOLD) -> dict:
    """The report `ptde eval` prints: AUCs, threshold and detection counts.

    Overall AUC plus one AUC per normal category against theft segments.
    Category AUCs compare theft-annotated segments with the segments of
    videos in that category alone, in split order; categories without
    segments are absent from the map. Non-theft segments of theft videos
    count only in the overall AUC. A 1 label in a normal-category video,
    which `load_manifest` rejects, counts once, as theft. A segment is
    detected when its score is strictly above the threshold.
    """
    scores, labels = segments.scores, segments.labels
    overall = auc(scores, labels)

    theft = labels == 1
    per_category = {}
    for category in NORMAL_CATEGORIES:
        normal = (segments.categories == CATEGORIES.index(category)) & ~theft
        if normal.any():
            rows = theft | normal
            per_category[category] = auc(scores[rows], labels[rows])

    flags = scores > threshold
    return {
        "overall_auc": overall,
        "per_category_auc": per_category,
        "threshold": threshold,
        "segment_count": len(segments),
        "detections": {
            "total": int(flags.sum()),
            "theft_segments": int(flags[theft].sum()),
            "normal_segments": int(flags[~theft].sum()),
        },
    }


def _rate_texts(counts: np.ndarray) -> list:
    """`repr` of each `counts / counts[-1]`, formatting each distinct rate once.

    Rows share their distinct rate's string: an object array indexes them
    without a Python int per row, which would add about 4 MB per 10^5 rows.
    """
    distinct, rows = np.unique(counts, return_inverse=True)
    texts = np.array(list(map(repr, (distinct / counts[-1]).tolist())), dtype=object)
    return texts[rows].tolist()


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV export: header `threshold,fpr,tpr`, one row per curve point.

    Values are written as `repr` of a Python float: the shortest text that
    reads back to the same float64. A rate is an integer count over its
    total, so it is formatted once per distinct count; thresholds are
    formatted one by one, since -0.0 and 0.0 must stay distinct. Rows are
    encoded and written in blocks, so the whole text is never held at once.
    """
    rows = map(
        ",".join,
        zip(
            map(repr, curve.thresholds.tolist()),
            _rate_texts(curve.fps),
            _rate_texts(curve.tps),
        ),
    )

    def chunks():
        yield b"threshold,fpr,tpr\n"
        while block := list(islice(rows, _ROC_CSV_BLOCK_ROWS)):
            yield ("\n".join(block) + "\n").encode("utf-8")

    write_atomic(path, chunks())


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
