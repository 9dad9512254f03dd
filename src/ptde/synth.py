"""Synthetic dataset generation with known-answer cluster structure.

Stands in for both external extractors (the real corpus is not available):
it emits PTDF appearance files, pose keypoint documents, and a manifest.
Theft segments draw their clip features from a cluster shifted by
`class_separation` away from the normal cluster, so a nearest-cluster-mean
oracle bounds what any scorer can achieve; that oracle's test-split AUC is
stored in the manifest metadata. Theft videos contain one contiguous block
of theft segments, recorded as segment-level ground truth. Output trees are
byte-identical for identical specs.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    CLIP_FRAMES,
    DEFAULT_IMAGE_HEIGHT,
    DEFAULT_IMAGE_WIDTH,
    is_image_dimension,
    write_feature_file,
)
from .errors import IoFailure
from .fileio import _DIGIT_GROUPS, write_atomic
from .metrics import CATEGORIES, NORMAL_CATEGORIES, THEFT_CATEGORY, auc
from .pose import JOINT_COUNT

_TABLE_TRAIN_COUNTS = {
    THEFT_CATEGORY: 60, "Pickup": 20, "Delivery": 20, "Irrelevant": 20
}
_TABLE_TEST_COUNTS = {
    THEFT_CATEGORY: 40, "Pickup": 10, "Delivery": 20, "Irrelevant": 10
}

# COCO-18 skeleton template, unit-height person, x right / y down, origin at
# the neck. Order: nose, neck, shoulders/elbows/wrists (R then L), hips/knees/
# ankles (R then L), eyes, ears.
_SKELETON = np.array(
    [
        (0.00, -0.12), (0.00, 0.00),
        (-0.16, 0.02), (-0.20, 0.26), (-0.22, 0.48),
        (0.16, 0.02), (0.20, 0.26), (0.22, 0.48),
        (-0.10, 0.46), (-0.11, 0.72), (-0.12, 0.96),
        (0.10, 0.46), (0.11, 0.72), (0.12, 0.96),
        (-0.04, -0.14), (0.04, -0.14), (-0.08, -0.12), (0.08, -0.12),
    ]
)


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the generated dataset and the `ptde synth` flag defaults;
    the counts mirror the real corpus split sizes."""

    seed: int = 0
    name: str = "synthetic-package-theft"
    feature_dim: int = 64
    segment_length: int = 32  # frames, i.e. 2 clips per segment
    segments_min: int = 4
    segments_max: int = 8
    class_separation: float = 1.0
    noise_scale: float = 0.1
    theft_fraction: float = 0.35
    image_width: int = DEFAULT_IMAGE_WIDTH
    image_height: int = DEFAULT_IMAGE_HEIGHT
    train_counts: dict = field(default_factory=lambda: dict(_TABLE_TRAIN_COUNTS))
    test_counts: dict = field(default_factory=lambda: dict(_TABLE_TEST_COUNTS))

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not np.isfinite(self.class_separation) or self.class_separation < 0:
            raise ValueError("class_separation must be finite and >= 0")
        if not np.isfinite(self.noise_scale) or self.noise_scale <= 0:
            raise ValueError("noise_scale must be finite and > 0")
        if not 0 < self.theft_fraction <= 1:
            raise ValueError("theft_fraction must be in (0, 1]")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.segment_length < CLIP_FRAMES or self.segment_length % CLIP_FRAMES:
            raise ValueError(
                f"segment_length must be a positive multiple of {CLIP_FRAMES}"
            )
        if not 1 <= self.segments_min <= self.segments_max:
            raise ValueError("need 1 <= segments_min <= segments_max")
        for label in ("image_width", "image_height"):
            if not is_image_dimension(getattr(self, label)):
                raise ValueError(
                    f"{label} must be a positive integer within float64 range"
                )
        for label, counts in (("train", self.train_counts), ("test", self.test_counts)):
            if set(counts) != set(CATEGORIES):
                raise ValueError(f"{label}_counts must cover exactly {CATEGORIES}")
            if any(c < 0 for c in counts.values()):
                raise ValueError(f"{label}_counts must be non-negative")
            if counts[THEFT_CATEGORY] < 1:
                raise ValueError(f"{label} split needs at least one theft video")
            if sum(counts[c] for c in NORMAL_CATEGORIES) < 1:
                raise ValueError(f"{label} split needs at least one normal video")


def _pose_document_json(rng, num_frames: int, width: int, height: int) -> str:
    """One plausible in-frame person per frame, drifting around the image.

    The whole document is written into one uint8 array, a row per frame: `[[`,
    JOINT_COUNT fixed-width `[x,y,0.ccc]` records with a separator each, `]]`
    and `,`. x and y take as many places as the largest of them has digits,
    filled from 3-digit groups with 0 bytes left of the first digit, and one
    `translate` deletes those 0 bytes. Pixels past int64, in images 2^63
    wide or more, are split into groups as Python ints. Python-level
    formatting of 54 integers per frame dominated generation time for
    full-size datasets.
    """
    scale = float(rng.uniform(0.35, 0.55)) * height
    cx = float(rng.uniform(0.3, 0.7)) * width
    cy = float(rng.uniform(0.2, 0.4)) * height
    steps = rng.normal(0.0, (2.0, 1.0), size=(num_frames, 2))
    x_lo, x_hi = 0.25 * width, 0.75 * width
    y_lo, y_hi = 0.15 * height, 0.45 * height
    walk = []
    for dx, dy in steps.tolist():  # clamped walk keeps the person in frame
        cx = min(max(cx + dx, x_lo), x_hi)
        cy = min(max(cy + dy, y_lo), y_hi)
        walk += (cx, cy)
    centers = np.array(walk, dtype=np.float64).reshape(num_frames, 2)
    jitter = rng.normal(0.0, 0.01, size=(num_frames, JOINT_COUNT, 2))
    pts = (_SKELETON[None] + jitter) * scale + centers[:, None, :]
    np.clip(pts[..., 0], 0.0, width, out=pts[..., 0])
    np.clip(pts[..., 1], 0.0, height, out=pts[..., 1])
    xy = np.rint(pts)
    conf = rng.integers(300, 1000, size=(num_frames, JOINT_COUNT))

    top = xy.max(initial=0.0)
    if top < 2.0**63:
        rest, split = xy.astype(np.int64), np.divmod
    else:  # past int64, the digit groups come from Python ints
        rest, split = np.frompyfunc(int, 1, 1)(xy), np.frompyfunc(divmod, 2, 2)
    places = len(str(int(top)))
    pad = b"\0" * places
    record = b"[" + pad + b"," + pad + b",0.\0\0\0],"
    frame = b"[[" + (record * JOINT_COUNT)[:-1] + b"]],"
    frames = np.empty((num_frames, len(frame)), dtype=np.uint8)
    frames[:] = np.frombuffer(frame, dtype=np.uint8)
    joints = frames[:, 2:-2].reshape(num_frames, JOINT_COUNT, len(record))
    joints[..., -5:-2] = _DIGIT_GROUPS.take(conf, axis=0)  # 300-999: three digits
    # the places of x and y, each without the "," after it
    digits = joints[..., 1 : 2 * places + 3].reshape(
        num_frames, JOINT_COUNT, 2, places + 1
    )[..., :places]
    for end in range(places, 0, -3):  # one 3-digit group per pass, low first
        rest, group = split(rest, 1000)
        text = _DIGIT_GROUPS.take(group.astype(np.intp, copy=False), axis=0)
        if end < places:  # a number that ended in an earlier pass writes nothing
            text *= more[..., None]
        more = rest > 0
        last = not more.any()
        if not last:  # a group with digits to its left keeps its zeros
            text |= more[..., None] * np.uint8(ord("0"))
        digits[..., max(end - 3, 0) : end] = text[..., max(3 - end, 0) :]
        if last:
            break
    body = frames.tobytes()[:-1].translate(None, b"\0")
    return "[" + body.decode("ascii") + "]"


def _theft_block(rng, num_segments: int, fraction: float) -> np.ndarray:
    length = min(num_segments, max(1, round(fraction * num_segments)))
    start = int(rng.integers(0, num_segments - length + 1))
    labels = np.zeros(num_segments, dtype=np.int64)
    labels[start : start + length] = 1
    return labels


def generate_synthetic(spec: SynthSpec, out_dir) -> Path:
    """Emit the dataset tree under out_dir and return the manifest path."""
    out_dir = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    clips_per_segment = spec.segment_length // CLIP_FRAMES

    direction = rng.standard_normal(spec.feature_dim)
    direction /= np.linalg.norm(direction)
    normal_mean = rng.standard_normal(spec.feature_dim)
    normal_mean /= np.linalg.norm(normal_mean)
    theft_mean = normal_mean + spec.class_separation * direction

    try:
        (out_dir / "features").mkdir(parents=True, exist_ok=True)
        (out_dir / "poses").mkdir(parents=True, exist_ok=True)

        videos = []
        oracle_scores = []
        oracle_labels = []
        for split, counts in (("train", spec.train_counts), ("test", spec.test_counts)):
            for category in CATEGORIES:
                for k in range(counts[category]):
                    vid = f"{split}_{category.lower()}_{k:03d}"
                    num_segments = int(
                        rng.integers(spec.segments_min, spec.segments_max + 1)
                    )
                    if category == THEFT_CATEGORY:
                        gt = _theft_block(rng, num_segments, spec.theft_fraction)
                    else:
                        gt = np.zeros(num_segments, dtype=np.int64)
                    tail_clips = int(rng.integers(0, clips_per_segment))
                    clip_count = num_segments * clips_per_segment + tail_clips
                    means = np.repeat(
                        np.where(gt[:, None] == 1, theft_mean, normal_mean),
                        clips_per_segment,
                        axis=0,
                    )
                    if tail_clips:
                        means = np.vstack([means, np.tile(normal_mean, (tail_clips, 1))])
                    clips = means + spec.noise_scale * rng.standard_normal(
                        (clip_count, spec.feature_dim)
                    )
                    clips = clips.astype(np.float32)

                    feature_rel = f"features/{vid}.ptdf"
                    write_feature_file(out_dir / feature_rel, clips)
                    pose_rel = f"poses/{vid}.json"
                    doc = _pose_document_json(
                        rng,
                        clip_count * CLIP_FRAMES,
                        spec.image_width,
                        spec.image_height,
                    )
                    write_atomic(out_dir / pose_rel, [doc.encode("ascii")])

                    if split == "test":
                        seg_clips = clips[
                            : num_segments * clips_per_segment
                        ].reshape(num_segments, clips_per_segment, spec.feature_dim)
                        seg_means = seg_clips.astype(np.float64).mean(axis=1)
                        dists = np.linalg.norm(seg_means - theft_mean, axis=1)
                        oracle_scores.extend((-dists).tolist())
                        oracle_labels.extend(gt.tolist())

                    videos.append(
                        {
                            "id": vid,
                            "split": split,
                            "category": category,
                            "feature_file": feature_rel,
                            "pose_file": pose_rel,
                            "annotations": gt.tolist(),
                        }
                    )

        oracle_auc = auc(oracle_scores, oracle_labels)
        manifest = {
            "name": spec.name,
            "feature_dim": spec.feature_dim,
            "clip_length": CLIP_FRAMES,
            "segment_length": spec.segment_length,
            "image_width": spec.image_width,
            "image_height": spec.image_height,
            "metadata": {
                "generator": asdict(spec),
                "oracle_auc": oracle_auc,
                "cluster_means": {
                    "normal": normal_mean.tolist(),
                    "theft": theft_mean.tolist(),
                },
            },
            "videos": videos,
        }
        manifest_path = out_dir / "manifest.json"
        write_atomic(manifest_path, [(json.dumps(manifest, indent=2) + "\n").encode("utf-8")])
    except OSError as exc:
        raise IoFailure(f"cannot write dataset under {out_dir}: {exc}") from exc
    return manifest_path
