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
from itertools import chain, repeat

import numpy as np

from .errors import DegenerateLabels, LengthMismatch
from .fileio import _DIGIT_GROUPS, write_atomic
from .pose import _halves

DEFAULT_THRESHOLD = 0.2
ROC_SVG_SIZE = 400  # pixels, width and height
_ROC_CSV_BLOCK_ROWS = 8192  # curve points formatted per write, in the CSV and the SVG

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

    def __post_init__(self):
        shapes = [np.shape(a) for a in (self.thresholds, self.tps, self.fps)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1 or shapes[0] == (0,):
            raise LengthMismatch(
                "thresholds, tps and fps must be 1-D and of one non-zero length, "
                "got shapes {}, {} and {}".format(*shapes)
            )

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


def _blocks(curve: RocCurve):
    """The slices of the curve's points that the writers format at a time."""
    step = _ROC_CSV_BLOCK_ROWS
    return (slice(lo, lo + step) for lo in range(0, len(curve.fps), step))


def _rate_rows(counts: np.ndarray, total):
    """`repr` of each `counts / total`, formatted once per run of equal rates.

    Runs are of bitwise-equal rates: -0.0 == 0.0, but their texts differ.
    """
    rates = counts / total
    after = rates[1:]
    change = (rates[:-1] != after) | (np.signbit(rates[:-1]) != np.signbit(after))
    starts = np.flatnonzero(np.concatenate(([True], change)))
    lengths = np.diff(starts, append=rates.size)
    texts = map(repr, rates[starts].tolist())
    return chain.from_iterable(map(repeat, texts, lengths.tolist()))


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV export: header `threshold,fpr,tpr`, one row per curve point.

    Values are written as `repr` of a Python float: the shortest text that
    reads back to the same float64. Thresholds are formatted one by one,
    since -0.0 and 0.0 must stay distinct; a rate is an integer count over
    its total and is formatted once per run of equal counts. Rows are
    formatted, encoded and written in blocks, so neither the text nor a
    string per row is held for the whole curve.
    """

    def chunks():
        yield b"threshold,fpr,tpr\n"
        for rows in _blocks(curve):
            lines = zip(
                map(repr, curve.thresholds[rows].tolist()),
                _rate_rows(curve.fps[rows], curve.fps[-1]),
                _rate_rows(curve.tps[rows], curve.tps[-1]),
            )
            yield ("\n".join(map(",".join, lines)) + "\n").encode("utf-8")

    write_atomic(path, chunks())


def _hundredths(v: np.ndarray) -> np.ndarray:
    """v * 100 rounded half to even on its exact value, as `format(v, '.2f')`
    rounds: the float product p plus its error e is exactly v * 100."""
    p = v * 100
    high, low = _halves(v)
    e = (high * 100 - p) + low * 100  # Dekker's product; 100 splits as (100, 0)
    n = np.rint(p)
    half = p - n  # exact; only at +-0.5 can e move the rounding
    n += (half == 0.5) & (e > 0)
    n -= (half == -0.5) & (e < 0)
    return n.astype(np.int64)


# a point's text: x, ",", y, " ", each coordinate "ddd.dd" (0 bytes before
# the first digit of its integer part)
_POINT = np.frombuffer(b"\0\0\0.\0\0,\0\0\0.\0\0 ", dtype=np.uint8).reshape(2, 7)


def _points_text(xy: np.ndarray) -> bytes:
    """`"{:.2f},{:.2f} "` of each (x, y) row, one format per point.

    Coordinates in [0, 1000) that round below 1000, which every
    `roc_curve` curve gives, are written from the digit table; a block
    with any other value keeps `format`.
    """
    if np.all((xy < 1000) & ~np.signbit(xy)):  # no NaN, infinity or -0.0
        whole, cents = np.divmod(_hundredths(xy), 100)
        if whole.max() < 1000:
            text = np.empty((len(xy), 2, 7), dtype=np.uint8)
            text[:] = _POINT
            text[..., :3] = _DIGIT_GROUPS.take(whole, axis=0)
            text[..., 4:6] = _DIGIT_GROUPS.take(cents + 100, axis=0)[..., 1:]
            return text.tobytes().translate(None, b"\0")
    return "".join(map("{:.2f},{:.2f} ".format, *xy.T.tolist())).encode("ascii")


def write_roc_svg(curve: RocCurve, path) -> None:
    """Minimal SVG rendering: unit-square axes plus the ROC polyline.

    The polyline's points are formatted and written in blocks, so neither
    the text nor a float per point is held for the whole curve.
    """
    margin = 40
    span = ROC_SVG_SIZE - 2 * margin

    # each takes a float or an array of them
    def sx(v):
        return margin + v * span

    def sy(v):
        return ROC_SVG_SIZE - margin - v * span

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{ROC_SVG_SIZE}" height="{ROC_SVG_SIZE}">\n'
        f'  <rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="#999"/>\n'
        f'  <line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        f'stroke="#ccc" stroke-dasharray="4 4"/>\n'
        f'  <polyline points="'
    )
    tail = (
        f'" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n'
        f'  <text x="{sx(0.5):.2f}" y="{ROC_SVG_SIZE - 10}" text-anchor="middle">'
        f"false positive rate</text>\n"
        f'  <text x="12" y="{sy(0.5):.2f}" text-anchor="middle" '
        f'transform="rotate(-90 12 {sy(0.5):.2f})">true positive rate</text>\n'
        f"</svg>\n"
    )

    def chunks():
        yield head.encode("utf-8")
        for points in _blocks(curve):
            x = sx(curve.fps[points] / curve.fps[-1])
            y = sy(curve.tps[points] / curve.tps[-1])
            text = _points_text(np.column_stack((x, y)))
            # points are separated by " ", so the last one drops its own
            yield text if points.stop < len(curve.fps) else text[:-1]
        yield tail.encode("utf-8")

    write_atomic(path, chunks())
