"""Pose keypoint parsing and the local (pose) segment feature.

The external pose estimator writes one JSON document per video: an array of
frames, each frame an array of candidate persons, each person exactly 18
[x_pixels, y_pixels, confidence] triples in COCO-18 joint order. Per frame
we keep the single most confident person, normalize pixel coordinates by the
image size, and clamp everything to [0, 1]. A segment's pose feature is the
mean of its frames' flattened 18x3 features. Every stage works on all the
frames of a video at once.
"""

import json
import math
import re
from itertools import chain

import numpy as np

from .errors import MalformedPoseFile

JOINT_COUNT = 18
JOINT_VALUES = 3  # x, y, confidence
SEGMENT_FEATURE_DIM = JOINT_COUNT * JOINT_VALUES

# Everything a valid document can hold: numbers, brackets, commas and JSON
# whitespace. Any other character is a string, bool, null, object or
# non-finite constant somewhere in the document.
_NUMERIC_DOCUMENT = re.compile(r"[\[\],0-9eE.+\- \t\n\r]*")


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
    try:
        frames = json.loads(doc)
    # bad syntax, an integer past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise MalformedPoseFile(f"invalid JSON: {exc}") from exc
    if not isinstance(frames, list):
        raise MalformedPoseFile("top level must be an array of frames")
    parsed = _keypoint_arrays(doc, frames)
    if parsed is None:
        raise MalformedPoseFile(_first_fault(frames))
    counts, joints = parsed
    candidates = np.zeros(
        (len(frames), max(1, counts.max(initial=0)), JOINT_COUNT, JOINT_VALUES)
    )
    candidates[..., 2] = -np.inf
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(joints)) - np.repeat(starts, counts)
    candidates[np.repeat(np.arange(len(frames)), counts), slot] = joints
    return candidates


def _keypoint_arrays(doc: str, frames: list):
    """(persons per frame, (persons, 18, 3) keypoints) of a parsed document,
    or None when it holds anything but well-formed, finite keypoints."""
    if not _NUMERIC_DOCUMENT.fullmatch(doc):
        return None
    try:
        counts = np.fromiter(map(len, frames), dtype=np.intp, count=len(frames))
        persons = list(chain.from_iterable(frames))
        joints = np.array(persons, dtype=np.float64) if persons else np.empty(
            (0, JOINT_COUNT, JOINT_VALUES)
        )
    except (TypeError, ValueError, OverflowError):  # ragged, or beyond float64
        return None
    if joints.shape[1:] != (JOINT_COUNT, JOINT_VALUES):
        return None
    return (counts, joints) if np.all(np.isfinite(joints)) else None


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
