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


def _ascii_words(chars: np.ndarray) -> np.ndarray:
    """Rows of at most 8 ASCII bytes (0 for none) as uint64 words whose
    little-endian bytes are the row."""
    padded = np.zeros((len(chars), 8), dtype=np.uint8)
    padded[:, : chars.shape[1]] = chars
    return padded.view("<u8")[:, 0].astype(np.uint64)


# 10**p as the unevaluated sum of two float64s, from exact integers: the
# first is 10**p rounded, the second the rounded rest (0 up to 10**22)
_POW10_MAX = 300
_POW10 = np.array([float(10**p) for p in range(_POW10_MAX + 1)])
_POW10_REST = np.array([float(10**p - int(t)) for p, t in enumerate(_POW10.tolist())])
_POW10_HALVES = _halves(_POW10)
# far more than the error of `_shortest_digits`'s product (under 1e-13 at
# its scale), far less than the steps it rounds to
_REPR_MARGIN = 2.0**-20


def _four_digit_words():
    """The texts "0000" to "9999" as `_ascii_words`, then the same with
    their trailing zeros as 0 bytes."""
    values = np.arange(10000, dtype=np.int16)
    places = (1000, 100, 10, 1)
    chars = np.stack([values // place % 10 + 48 for place in places], axis=1)
    # a digit is kept where it, or a digit after it, is not 0
    kept = np.stack([values % (10 * place) != 0 for place in places], axis=1)
    return np.concatenate([_ascii_words(chars), _ascii_words(chars * kept)])


_FOUR_DIGITS = _four_digit_words()
# "e-400" to "e+399": the exponent of `repr`'s scientific form, index e + 400
_EXPONENTS = _ascii_words(
    np.array([list(f"e{e:+03d}".encode().ljust(5, b"\0")) for e in range(-400, 400)])
)
# bytes_below(c) is the mask of a word's first c bytes, for c clipped to [0, 8]
_BYTES_BELOW = np.array([2 ** (8 * min(max(c, 0), 8)) - 1 for c in range(-16, 32)], dtype=np.uint64)
_ZEROS, _POINTS = np.uint64(0x3030303030303030), np.uint64(0x2E2E2E2E2E2E2E2E)
_SMALL_LEAD = np.uint64(int.from_bytes(b"0.000", "little"))
_REPR_WIDTH = 32  # bytes per value: four words, the last byte left for a separator


def _bytes_below(c):
    return _BYTES_BELOW.take(c + 16)


def _shortest_digits(a: np.ndarray):
    """The digits and decimal point of `repr` for each positive float64.

    Returns (digits, point, exact): `digits` is a 17-digit integer whose
    leading significant digits, before its trailing zeros, are those of
    `repr`, and the value is 0.digits * 10**point. `repr` gives the fewest
    significant digits that read back to the same float, and of those the
    nearest. The exact product a * 10**p at 17 digits (Dekker's, against
    10**p as two floats) is rounded to the nearest integer n; the 15- and
    16-digit roundings of a * 10**p are taken from n's last two digits and
    the residual, and one is kept when it lies inside half the gap to the
    neighbouring floats by `_REPR_MARGIN`, else n itself. `exact` is False
    where the margin cannot decide, near a tie or the edge of that interval,
    and at a power of two (whose lower gap is half the upper), 0, a
    subnormal, an infinity, NaN, or a value outside [2**-943, 2**54), past
    the table of 10**p.
    """
    bits = a.view(np.int64)
    power2 = (bits >> 52) - 1023
    # floor(power2 * log10(2)) is floor(log10(a)) or one less, so a * 10**p
    # lies in [10**16, 10**18): one step down where it reaches 10**17
    p = 16 - ((power2 * 78913) >> 18)
    exact = ((bits & 0xFFFFFFFFFFFFF) != 0) & (p >= 1) & (p <= _POW10_MAX)
    # the rest stand in as 1.5, so that the arithmetic below stays finite
    a = np.where(exact, a, 1.5)
    p = np.where(exact, p, 16)
    p -= a * _POW10.take(p) >= 1e17
    high = _POW10.take(p)
    product = a * high
    a_high, a_low = _halves(a)
    h_high, h_low = _POW10_HALVES[0].take(p), _POW10_HALVES[1].take(p)
    # a * 10**p == product + rest, to well within the margin
    rest = ((a_high * h_high - product) + a_high * h_low + a_low * h_high) + a_low * h_low
    rest += a * _POW10_REST.take(p)
    # product is an integer, a multiple of 2 or more past 2**53: n takes
    # in the rounding of rest
    rest_int = np.rint(rest)
    residual = rest - rest_int
    n = product.astype(np.int64) + rest_int.astype(np.int64)
    exact &= (n >= 10**16) & (n < 10**17)
    # half the gap to either neighbouring float, at the product's scale
    half_gap = (bits & 0x7FF0000000000000).view(np.float64) * 2.0**-53 * high
    tens, hundreds = n // 10, n // 100
    from_ten = (n - tens * 10) + residual  # a * 10**p above tens * 10
    from_hundred = (n - hundreds * 100) + residual
    off16 = np.minimum(np.abs(from_ten), 10 - from_ten)  # to the nearest multiple of 10
    off15 = np.minimum(np.abs(from_hundred), 100 - from_hundred)
    use15 = off15 < half_gap - _REPR_MARGIN
    use16 = (
        (off15 > half_gap + _REPR_MARGIN)
        & (off16 < half_gap - _REPR_MARGIN)
        & (np.abs(from_ten - 5) > _REPR_MARGIN)  # two nearest 16-digit candidates
    )
    use17 = (off16 > half_gap + _REPR_MARGIN) & (np.abs(residual) < 0.5 - _REPR_MARGIN)
    exact &= use15 | use16 | use17
    digits = np.where(
        use15,
        (hundreds + (from_hundred >= 50)) * 100,
        np.where(use16, (tens + (from_ten >= 5)) * 10, n),
    )
    # rounding up to 10**17 adds a digit
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, 17 - p + carry, exact


def _repr_fields(values: np.ndarray) -> np.ndarray:
    """`repr` of each value's Python scalar, one row of bytes per value.

    A row holds its text among 0 bytes and is longer than the text, so its
    last byte is always 0: a writer may set it, and deletes the 0 bytes
    with one `bytes.translate`. Float values are written from
    `_shortest_digits` through the digit tables, as four uint64 words whose
    little-endian bytes are the row: the sign and the "0.000" lead of a
    fixed form below 1, then the digits less their trailing zeros with the
    point put in, then the exponent of the scientific form. Values it
    cannot decide, and values of any other dtype, are formatted one by one
    with `repr`.
    """
    n = len(values)
    words = np.zeros((n, _REPR_WIDTH // 8), dtype="<u8")
    if values.dtype.kind == "f" and values.dtype.itemsize <= 8:
        v = values.astype(np.float64, copy=False)
        digits, point, exact = _shortest_digits(np.abs(v))
        lead, rest = np.divmod(digits, 10**16)
        upper, lower = np.divmod(rest, 10**8)
        groups = [*np.divmod(upper, 10**4), *np.divmod(lower, 10**4)]
        # a group is written without its trailing zeros when every group after it is 0
        after_zero = np.ones(n, dtype=bool)
        text = [None] * 4
        for i in (3, 2, 1, 0):
            text[i] = _FOUR_DIGITS.take(groups[i] + 10000 * after_zero)
            after_zero &= groups[i] == 0
        # the 17 digits' bytes, or 0 for a trailing zero
        chars = [
            (lead.astype(np.uint64) + np.uint64(0x30)) | (text[0] << 8) | (text[1] << 40),
            (text[1] >> 24) | (text[2] << 8) | (text[3] << 40),
            text[3] >> 24,
        ]
        scientific = (point <= -4) | (point > 16)
        fixed = ~scientific & (point > 0)  # digits before the point
        # the point goes after `before` digits, and `after` is one past it
        # where there is one; "0.000ddd" has its point in the lead
        before = np.where(fixed, point, scientific.astype(np.int64))
        after = before + (fixed | (scientific & ((chars[0] >> 8 | chars[1] | chars[2]) != 0)))
        # fixed keeps its zeros up to the point, and one after it
        keep = (point + 1) * fixed
        # each word: the digits before the point, the point, then the other
        # digits one byte up, carried across words
        carried = np.uint64(0)
        for i in range(3):
            first = _bytes_below(before - 8 * i)
            word = chars[i] | (_ZEROS & _bytes_below(keep - 8 * i))
            second = word & ~first
            words[:, 1 + i] = (
                (word & first)
                | (_POINTS & _bytes_below(after - 8 * i) & ~first)
                | (second << 8)
                | (carried >> 56)
            )
            carried = second
        small = ~scientific & ~fixed
        lead_text = _SMALL_LEAD & _bytes_below((2 - point) * small)
        words[:, 0] = (np.signbit(v) * np.uint64(0x2D)) | (lead_text << 8)
        # the exponent, point - 1, after the 18 bytes of digits and point
        words[:, 3] |= (_EXPONENTS.take(point + 399) * scientific) << 16
    else:
        exact = np.zeros(n, dtype=bool)
    fields = words.view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [repr(x).encode("utf-8") for x in values[slow].tolist()]
        width = max(_REPR_WIDTH, max(map(len, texts)) + 1)
        if width > _REPR_WIDTH:
            fields = np.pad(fields, ((0, 0), (0, width - _REPR_WIDTH)))
        padded = b"".join(t.ljust(width, b"\0") for t in texts)
        fields[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
    return fields


def _rate_fields(counts: np.ndarray, total) -> np.ndarray:
    """`_repr_fields` of each `counts / total`, formatted once per run of
    equal rates. Runs are of bitwise-equal rates: -0.0 == 0.0, but their
    texts differ."""
    rates = counts / total
    after = rates[1:]
    change = (rates[:-1] != after) | (np.signbit(rates[:-1]) != np.signbit(after))
    starts = np.flatnonzero(np.concatenate(([True], change)))
    lengths = np.diff(starts, append=rates.size)
    return np.repeat(_repr_fields(rates[starts]), lengths, axis=0)


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV export: header `threshold,fpr,tpr`, one row per curve point.

    Values are written as `repr` of a Python float: the shortest text that
    reads back to the same float64. Each block of rows is formatted as
    arrays (`_repr_fields`): a threshold per point, and a rate, an integer
    count over its total, once per run of equal counts. The separators
    fill each field's last byte and one `translate` deletes the padding,
    so neither the text nor a string per row is held for the whole curve.
    """

    def chunks():
        yield b"threshold,fpr,tpr\n"
        for rows in _blocks(curve):
            fields = (
                _repr_fields(curve.thresholds[rows]),
                _rate_fields(curve.fps[rows], curve.fps[-1]),
                _rate_fields(curve.tps[rows], curve.tps[-1]),
            )
            for field, end in zip(fields, b",,\n"):
                field[:, -1] = end
            yield np.concatenate(fields, axis=1).tobytes().translate(None, b"\0")

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
