"""Pose keypoint parsing and the local (pose) segment feature.

The external pose estimator writes one JSON document per video: an array of
frames, each frame an array of candidate persons, each person exactly 18
[x_pixels, y_pixels, confidence] triples in COCO-18 joint order. Per frame
we keep the single most confident person, normalize pixel coordinates by the
image size, and clamp everything to [0, 1]. A segment's pose feature is the
mean of its frames' flattened 18x3 features. Every stage works on all the
frames of a video at once.

A document is parsed from its bytes in array passes, never value by value.
It may use any JSON number form and JSON whitespace between values. Numbers
convert with correct rounding, bitwise as `json` converts them (a JSON
integer -0 gives +0.0). A document the byte pass rejects is handed to
`json.loads`, and the error names its first bad frame, person and joint in
document order.
"""

import json
import math
import re

import numpy as np

from .errors import MalformedPoseFile

JOINT_COUNT = 18
JOINT_VALUES = 3  # x, y, confidence
SEGMENT_FEATURE_DIM = JOINT_COUNT * JOINT_VALUES

# One class per byte. Number bytes come first and digits first among them,
# so `kind <= _EXP` marks numbers and `kind <= _DIGIT` digits. Class 0 is
# every byte that no valid document holds.
_ZERO, _DIGIT, _MINUS, _PLUS, _DOT, _EXP, _OPEN, _CLOSE, _COMMA, _SPACE = range(1, 11)
_WHITESPACE = b" \t\n\r"
_CLASS_BYTES = (
    (b"0", _ZERO), (b"123456789", _DIGIT), (b"-", _MINUS), (b"+", _PLUS),
    (b".", _DOT), (b"eE", _EXP), (b"[", _OPEN), (b"]", _CLOSE), (b",", _COMMA),
    (_WHITESPACE, _SPACE),
)
_KIND = bytes(
    next((kind for chars, kind in _CLASS_BYTES if byte in chars), 0)
    for byte in range(256)
)
# The bytes that may follow each class once whitespace is gone. Pairs alone
# cannot count: one '.' and one exponent per number, the '.' first, and no
# leading zero are checked on the number tokens.
_FOLLOWERS = {
    _ZERO: (_ZERO, _DIGIT, _DOT, _EXP, _CLOSE, _COMMA),
    _DIGIT: (_ZERO, _DIGIT, _DOT, _EXP, _CLOSE, _COMMA),
    _MINUS: (_ZERO, _DIGIT),
    _PLUS: (_ZERO, _DIGIT),
    _DOT: (_ZERO, _DIGIT),
    _EXP: (_ZERO, _DIGIT, _MINUS, _PLUS),
    _OPEN: (_ZERO, _DIGIT, _MINUS, _OPEN, _CLOSE),
    _CLOSE: (_CLOSE, _COMMA),
    _COMMA: (_ZERO, _DIGIT, _MINUS, _OPEN),
}
# indexed by `first << 4 | second`; 1 for an allowed pair
_PAIRS = bytes(
    int((code & 15) in _FOLLOWERS.get(code >> 4, ())) for code in range(256)
)
_NUMBER_BYTES = b"0123456789-+.eE"
# With the numbers deleted, a person is this fixed string; the document is
# then an array of frames, each an array of person marks.
_PERSON = b"[" + b",".join([b"[,,]"] * JOINT_COUNT) + b"]"
_FRAMES = re.compile(rb"\[(?:\[(?:p(?:,p)*)?\](?:,\[(?:p(?:,p)*)?\])*)?\]")
# A mantissa of at most 15 digits is below 2**53, and 10**k is exact up to
# k = 22, so mantissa / 10**k is correctly rounded (Clinger's fast path).
# Up to 18 digits fit an int64 and take `_long_quotients`.
_FAST_DIGITS = 15
_PLAIN_DIGITS = 18
_POW10 = np.array([float(10**k) for k in range(_PLAIN_DIGITS + 1)])
_POW10_INT = 10 ** np.arange(_PLAIN_DIGITS, dtype=np.int64)


def parse_pose_document(doc: str) -> np.ndarray:
    """Parse a pose document into a (frames, slots, 18, 3) candidate array.

    Frame f's persons fill slots 0, 1, ... in document order, in raw pixel
    coordinates. Slots past a frame's last person are empty: zero
    coordinates and confidence -inf, so an empty slot never outranks a
    person and selects as the all-zero frame. There is at least one slot.
    Raises MalformedPoseFile on bad syntax, wrong joint counts, or
    non-numeric/non-finite values, naming the first bad frame, person and
    joint in document order.
    """
    parsed = _scan(doc)
    if parsed is None:
        _reject(doc)
    counts, joints = parsed
    candidates = np.zeros(
        (len(counts), max(1, counts.max(initial=0)), JOINT_COUNT, JOINT_VALUES)
    )
    candidates[..., 2] = -np.inf
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(joints)) - np.repeat(starts, counts)
    candidates[np.repeat(np.arange(len(counts)), counts), slot] = joints
    return candidates


def _scan(doc: str):
    """(persons per frame, (persons, 18, 3) keypoints) of a document, or
    None when it holds anything but well-formed, finite keypoints."""
    try:
        raw = doc.encode("ascii")
    except UnicodeEncodeError:  # other characters belong in strings
        return None
    kinds = raw.translate(_KIND)
    if _SPACE in kinds:
        if _splits_a_number(np.frombuffer(kinds, dtype=np.uint8)):
            return None
        raw = raw.translate(None, _WHITESPACE)
        kinds = raw.translate(_KIND)
    kind = np.frombuffer(kinds, dtype=np.uint8)
    if 0 in ((kind[:-1] << 4) | kind[1:]).tobytes().translate(_PAIRS):
        return None
    counts = _persons_per_frame(raw.translate(None, _NUMBER_BYTES))
    if counts is None:
        return None
    # the number tokens: runs of number bytes, between brackets and commas
    number = kind <= _EXP
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # every number sits in a person's triple: none in a bare [5] or [[5]]
    if len(starts) != counts.sum() * JOINT_COUNT * JOINT_VALUES:
        return None
    values = _numbers(raw, kind, starts, ends)
    if values is None:
        return None
    return counts, values.reshape(-1, JOINT_COUNT, JOINT_VALUES)


def _splits_a_number(kind) -> bool:
    """Whether a run of whitespace has number bytes on both sides."""
    space = np.flatnonzero(kind == _SPACE)
    first = space[np.diff(space, prepend=-2) != 1]
    last = space[np.diff(space, append=len(kind) + 1) != 1]
    inside = (first > 0) & (last < len(kind) - 1)
    return bool(np.any(
        (kind[first[inside] - 1] <= _EXP) & (kind[last[inside] + 1] <= _EXP)
    ))


def _persons_per_frame(skeleton: bytes):
    """Persons in each frame of the document with its numbers deleted, or
    None when that is not an array of frames of 18-joint persons."""
    skeleton = skeleton.replace(_PERSON, b"p")
    if not _FRAMES.fullmatch(skeleton):
        return None
    marks = np.frombuffer(skeleton, dtype=np.uint8)[1:-1]
    frame = np.cumsum(marks == ord("[")) - 1
    return np.bincount(frame[marks == ord("p")], minlength=skeleton.count(b"[") - 1)


def _numbers(raw: bytes, kind, starts, ends):
    """float64 values of the number tokens [starts, ends) of the
    whitespace-free document `raw`, or None when one is not a JSON number
    or not finite."""
    # signs, points and exponent marks, and the token each belongs to
    marks = np.flatnonzero((kind >= _MINUS) & (kind <= _EXP))
    owner = np.searchsorted(ends, marks, side="right")
    mark = kind[marks]
    # at most one '.' and one exponent per token, the '.' first
    sep = mark >= _DOT
    same = owner[sep][1:] == owner[sep][:-1]
    if np.any(same & ((mark[sep][:-1] != _DOT) | (mark[sep][1:] != _EXP))):
        return None
    negative = kind[starts] == _MINUS
    first = starts + negative
    # a zero that starts an integer part is its only digit
    if np.any(kind[first[kind[first] == _ZERO] + 1] <= _DIGIT):
        return None

    # Tokens without an exponent and with at most 18 digits are converted
    # here: an integer mantissa over 10**(digits after the point).
    digits = (ends - starts) - np.bincount(owner, minlength=len(starts))
    point = mark == _DOT
    fraction = np.zeros(len(starts), dtype=np.intp)
    fraction[owner[point]] = ends[owner[point]] - marks[point] - 1
    plain = digits <= _PLAIN_DIGITS
    plain[owner[mark == _EXP]] = False
    at = np.flatnonzero(plain)
    stream = np.frombuffer(raw.translate(None, b"[],-+.eE"), dtype=np.uint8) - 48
    mantissa = _mantissas(stream, np.cumsum(digits)[at], digits[at])
    power = _POW10[fraction[at]]
    quotient = mantissa / power
    long = digits[at] > _FAST_DIGITS
    if long.any():
        quotient[long], certain = _long_quotients(mantissa[long], power[long])
        plain[at[long][~certain]] = False
    values = np.zeros(len(starts))
    values[at] = quotient
    dotted = fraction > 0
    np.negative(values, out=values, where=negative & dotted)
    # 0.0 - x is -x, except that a JSON integer -0 gives +0.0 as in json
    np.subtract(0.0, values, out=values, where=negative & ~dotted)

    # exponents, longer mantissas and the rare uncertain quotient
    rest = np.flatnonzero(~plain)
    if len(rest):
        values[rest] = [
            float(raw[s:e]) for s, e in zip(starts[rest].tolist(), ends[rest].tolist())
        ]
        if not np.isfinite(values[rest]).all():
            return None
    return values


def _mantissas(stream, last, digits):
    """The int64 whose decimal digits are stream[last - digits : last], per
    token (digits <= 18).

    One row of a (width, tokens) window per digit place; the places left of
    a token's first digit are zeroed.
    """
    width = int(digits.max(initial=1))
    place = np.arange(width)[:, None]
    padded = np.concatenate([np.zeros(width, dtype=np.uint8), stream])
    window = np.lib.stride_tricks.as_strided(
        padded, shape=(width, len(stream) + 1), strides=(1, 1), writeable=False
    ).take(last, axis=1)
    window *= place >= width - digits
    return _POW10_INT[width - 1 :: -1] @ window


def _long_quotients(mantissa, power):
    """Correctly rounded mantissa / power for 16- to 18-digit int64
    mantissas and exact powers of ten, and whether each is certain.

    q = mantissa / power in float64 can be off by about two units in the
    last place (ulp). Dekker's exact product q * power gives the remainder
    mantissa - q * power exactly, up to one rounding once the mantissa's
    low part is added, so q + t with t = remainder / power is within
    2**-50 ulp of the true quotient, and y = q + t rounds it. y is certain
    unless q + t lies within 2**-48 ulp of a rounding boundary. A decimal of
    at most 18 digits is either a midpoint between two doubles, such as
    2**53 + 1, or at least 2**-42 ulp away from one, so only midpoints go
    to float().
    """
    high = mantissa.astype(np.float64)
    low = (mantissa - high.astype(np.int64)).astype(np.float64)  # exact
    q = high / power
    q_high, q_low = _halves(q)
    p_high, p_low = _halves(power)
    product = q * power
    # q * power == product + error exactly
    error = ((q_high * p_high - product) + q_high * p_low + q_low * p_high) + q_low * p_low
    t = ((high - product) - error + low) / power
    y = q + t
    e = t - (y - q)  # q + t == y + e exactly
    up = np.nextafter(y, np.inf) - y
    down = y - np.nextafter(y, 0.0)
    margin = up * 2.0**-48
    return y, (up / 2 - e > margin) & (down / 2 + e > margin)


def _halves(x):
    """Veltkamp's split of x into two halves of at most 26 bits each."""
    c = x * (2.0**27 + 1)
    high = c - (c - x)
    return high, x - high


def _reject(doc: str):
    """Raise MalformedPoseFile naming a rejected document's first fault,
    found by walking its `json.loads` tree in document order."""
    try:
        frames = json.loads(doc)
    # bad syntax, an integer past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise MalformedPoseFile(f"invalid JSON: {exc}") from exc
    if not isinstance(frames, list):
        raise MalformedPoseFile("top level must be an array of frames")
    raise MalformedPoseFile(_first_fault(frames))


def _first_fault(frames) -> str:
    """Walk a rejected document in order and describe its first fault."""
    for f_idx, frame in enumerate(frames):
        if not isinstance(frame, list):
            return f"frame {f_idx} is not an array of persons"
        for p_idx, person in enumerate(frame):
            if not isinstance(person, list) or len(person) != JOINT_COUNT:
                got = len(person) if isinstance(person, list) else type(person).__name__
                return (
                    f"frame {f_idx} person {p_idx}: expected {JOINT_COUNT} "
                    f"joints, got {got}"
                )
            finite = True
            for j_idx, triple in enumerate(person):
                if not isinstance(triple, list) or len(triple) != JOINT_VALUES:
                    return (
                        f"frame {f_idx} person {p_idx} joint {j_idx}: "
                        f"expected [x, y, confidence]"
                    )
                for value in triple:
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        return (
                            f"frame {f_idx} person {p_idx} joint {j_idx}: "
                            f"non-numeric value {value!r}"
                        )
                    try:
                        finite = finite and math.isfinite(value)
                    except OverflowError:  # an integer beyond float64
                        finite = False
            if not finite:
                return f"frame {f_idx} person {p_idx}: non-finite keypoint value"
    return "keypoint values must be finite numbers"


def pose_feature(candidates, image_width: float, image_height: float) -> np.ndarray:
    """Select one person per frame and normalize to image coordinates.

    `candidates` is the (frames, slots, 18, 3) array of
    `parse_pose_document`; the result is (frames, 18, 3). The person with
    the highest mean joint confidence wins; ties go to the lowest person
    index. A frame with no person gives the all-zero frame. Coordinates are
    divided by the image size and clamped to [0, 1] because estimators
    occasionally emit out-of-frame joints.
    """
    if image_width <= 0 or image_height <= 0:
        raise ValueError(
            f"image dimensions must be positive, got {image_width}x{image_height}"
        )
    candidates = np.asarray(candidates, dtype=np.float64)
    # argmax resolves ties to the lowest index
    best = np.argmax(candidates[..., 2].mean(axis=-1), axis=1)
    joints = candidates[np.arange(len(candidates)), best]
    joints[..., 0] /= image_width
    joints[..., 1] /= image_height
    np.clip(joints, 0.0, 1.0, out=joints)
    return joints


def pool_pose(frames, segment_length: int) -> np.ndarray:
    """Per-segment mean of the flattened frame features.

    `frames` is (segments * segment_length, 18, 3); the result is
    (segments, 54). Frames are summed in order, as a per-segment loop would.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if segment_length < 1 or len(frames) % segment_length:
        raise ValueError(
            f"{len(frames)} frames do not split into segments of {segment_length}"
        )
    return frames.reshape(-1, segment_length, SEGMENT_FEATURE_DIM).mean(axis=1)
