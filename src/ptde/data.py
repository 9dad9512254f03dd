"""Manifest-driven dataset loading, feature files, and checkpoints.

This module is the contract boundary with the external appearance and pose
extractors. Appearance features arrive in PTDF binary files (header: magic
"PTDF", version, clip count, dimension as 32-bit little-endian integers,
then clip_count x dim little-endian float32 values). Pose keypoints arrive
as the JSON documents described in the pose module. A JSON manifest ties
the files to labels, splits, and category tags; its VideoRecords keep each
video's id, category, annotations, clip count and segment count. A video's
bag is its (segments, dim) embedding array, built from a fresh read of the
feature file, which must keep the clip count and dimension the manifest was
loaded with. A BagSet stacks a whole split's bags into one array with their
offsets and bag labels, which is all that training reads.

Checkpoints carry the scoring head: magic "PTDE", version, input_dim, the
three layer widths, fusion-mode tag, and seed, followed by the parameters
as little-endian float64 in layer order, row-major. Round-trips are
bit-exact. The header widths are checked before any array is sized from them.
"""

import json
import math
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    BadCategory,
    CorruptCheckpoint,
    CorruptFeatureFile,
    EmptyVideo,
    InconsistentDimension,
    MalformedPoseFile,
    ManifestSyntax,
    MissingFeatureFile,
    MissingPose,
    UnknownVideo,
    UnsupportedVersion,
)
from .fileio import write_atomic
from .fusion import FusionMode, fuse
from .metrics import CATEGORIES, THEFT_CATEGORY
from .pose import SEGMENT_FEATURE_DIM, parse_pose_document, pool_pose, pose_feature
from .scoring import OUTPUT, ScoringHead
from .segmenting import aggregate_segment

CLIP_FRAMES = 16

FEATURE_MAGIC = b"PTDF"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sIII")  # magic, version, clip_count, dim

CHECKPOINT_MAGIC = b"PTDE"
CHECKPOINT_VERSION = 1
# magic, version, input_dim, hidden1, hidden2, out, fusion tag, seed
_CHECKPOINT_HEADER = struct.Struct("<4sIIIIIIq")

_FUSION_TAGS = {FusionMode.GLOBAL_ONLY: 0, FusionMode.GLOBAL_LOCAL_CONCAT: 1}
_TAG_FUSIONS = {tag: mode for mode, tag in _FUSION_TAGS.items()}

DEFAULT_IMAGE_WIDTH = 320
DEFAULT_IMAGE_HEIGHT = 240
SPLITS = ("train", "test")


# ---------------------------------------------------------------- features

def write_feature_file(path, clips) -> None:
    """Write one video's clip features as a PTDF file (float32 payload).

    The file goes through `write_atomic`, so a failed write leaves the
    previous file, or none, and no partial one. A `clips` array that is not
    2-D raises ValueError before any file is touched.
    """
    clips = np.ascontiguousarray(clips, dtype="<f4")
    if clips.ndim != 2:
        raise ValueError(f"clips must be a (count, dim) array, got {clips.shape}")
    header = _FEATURE_HEADER.pack(
        FEATURE_MAGIC, FEATURE_VERSION, clips.shape[0], clips.shape[1]
    )
    write_atomic(path, [header, clips.tobytes()])


def _check_feature_header(path, head: bytes, size: int) -> tuple[int, int]:
    """(clip_count, dim) from a PTDF file's first bytes and its total size."""
    if len(head) < _FEATURE_HEADER.size:
        raise CorruptFeatureFile(f"{path}: header truncated at byte {len(head)}")
    magic, version, count, dim = _FEATURE_HEADER.unpack_from(head)
    if magic != FEATURE_MAGIC:
        raise CorruptFeatureFile(f"{path}: bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise CorruptFeatureFile(f"{path}: unsupported feature version {version}")
    if dim < 1:
        raise CorruptFeatureFile(f"{path}: feature dimension {dim}")
    expected = _FEATURE_HEADER.size + count * dim * 4
    if size != expected:
        raise CorruptFeatureFile(
            f"{path}: expected {expected} bytes, file ends at byte offset {size}"
        )
    return count, dim


def read_feature_header(path) -> tuple[int, int]:
    """(clip_count, dim) from a PTDF header; validates total file size."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(_FEATURE_HEADER.size)
    return _check_feature_header(path, head, size)


def read_feature_file(path) -> np.ndarray:
    """Load a PTDF file as a (clip_count, dim) float64 array.

    The header checks run on the bytes that are decoded, so a file that
    changes between two reads cannot pass them.
    """
    data = Path(path).read_bytes()
    count, dim = _check_feature_header(path, data, len(data))
    clips = np.frombuffer(
        data, dtype="<f4", offset=_FEATURE_HEADER.size, count=count * dim
    ).reshape(count, dim)
    if not np.all(np.isfinite(clips)):
        raise CorruptFeatureFile(f"{path}: non-finite feature values")
    return clips.astype(np.float64)


# ---------------------------------------------------------------- manifest

@dataclass(frozen=True)
class VideoRecord:
    """One manifest video.

    A video of T = clip_count * clip_length frames is cut into
    num_segments = floor(T / L) contiguous, non-overlapping segments of
    exactly L = segment_length frames, segment i covering frames
    [i * L, (i + 1) * L); the trailing T mod L frames are dropped.
    """

    video_id: str
    split: str
    category: str
    feature_path: Path
    pose_path: Path | None
    annotations: tuple[int, ...] | None
    clip_count: int
    num_segments: int

    @property
    def is_positive(self) -> bool:
        return self.category == THEFT_CATEGORY


@dataclass(frozen=True)
class Manifest:
    name: str
    feature_dim: int
    clip_length: int
    segment_length: int
    image_width: int
    image_height: int
    videos: tuple[VideoRecord, ...]
    metadata: dict
    path: Path

    @cached_property
    def _records_by_id(self) -> dict[str, VideoRecord]:
        return {rec.video_id: rec for rec in self.videos}

    def record(self, video_id: str) -> VideoRecord:
        try:
            return self._records_by_id[video_id]
        except KeyError:
            raise UnknownVideo(
                f"video id {video_id!r} not in manifest {self.path}"
            ) from None

    def split_records(self, split: str) -> tuple[VideoRecord, ...]:
        return tuple(rec for rec in self.videos if rec.split == split)


def _field(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise ManifestSyntax(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ManifestSyntax(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ManifestSyntax(
            f"{where}: field {key!r} has type {type(value).__name__}"
        )
    return value


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"


def load_manifest(path) -> Manifest:
    """Load and validate a manifest, probing every referenced file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestSyntax(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestSyntax(f"{path}: {_not_utf8(exc)}") from exc
    try:
        raw = json.loads(text)
    # bad syntax, an integer past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ManifestSyntax(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestSyntax(f"{path}: top level must be an object")

    name = _field(raw, "name", str, str(path))
    feature_dim = _field(raw, "feature_dim", int, str(path))
    clip_length = _field(raw, "clip_length", int, str(path))
    segment_length = _field(raw, "segment_length", int, str(path))
    width = raw.get("image_width", DEFAULT_IMAGE_WIDTH)
    height = raw.get("image_height", DEFAULT_IMAGE_HEIGHT)
    if feature_dim < 1:
        raise ManifestSyntax(f"{path}: feature_dim must be >= 1")
    if clip_length != CLIP_FRAMES:
        raise ManifestSyntax(
            f"{path}: clip_length is fixed at {CLIP_FRAMES} by the extractor "
            f"contract, got {clip_length}"
        )
    if segment_length < clip_length or segment_length % clip_length != 0:
        raise ManifestSyntax(
            f"{path}: segment_length must be a positive multiple of "
            f"{clip_length}, got {segment_length}"
        )
    if any(
        isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= sys.float_info.max
        for v in (width, height)
    ):
        raise ManifestSyntax(
            f"{path}: image dimensions must be positive integers within float64 range"
        )

    videos_raw = _field(raw, "videos", list, str(path))
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ManifestSyntax(f"{path}: metadata must be an object")

    records = []
    seen_ids = set()
    for idx, video in enumerate(videos_raw):
        where = f"{path} videos[{idx}]"
        if not isinstance(video, dict):
            raise ManifestSyntax(f"{where}: must be an object")
        vid = _field(video, "id", str, where)
        if vid in seen_ids:
            raise ManifestSyntax(f"{where}: duplicate video id {vid!r}")
        seen_ids.add(vid)
        split = _field(video, "split", str, where)
        if split not in SPLITS:
            raise ManifestSyntax(f"{where}: split must be one of {SPLITS}")
        category = _field(video, "category", str, where)
        if category not in CATEGORIES:
            raise BadCategory(
                f"{where}: category {category!r} not in {sorted(CATEGORIES)}"
            )
        feature_path = path.parent / _field(video, "feature_file", str, where)
        if not feature_path.is_file():
            raise MissingFeatureFile(str(feature_path))
        clip_count, dim = read_feature_header(feature_path)
        if dim != feature_dim:
            raise InconsistentDimension(
                f"{feature_path}: file dimension {dim} != manifest "
                f"feature_dim {feature_dim}"
            )
        num_segments = clip_count * clip_length // segment_length
        pose_path = None
        if "pose_file" in video and video["pose_file"] is not None:
            pose_path = path.parent / _field(video, "pose_file", str, where)
            if not pose_path.is_file():
                raise MissingFeatureFile(str(pose_path))
        annotations = None
        if "annotations" in video and video["annotations"] is not None:
            ann = _field(video, "annotations", list, where)
            try:
                values = set(ann)
            except TypeError:  # a list or an object among the values
                values = None
            # True == 1 and False == 0, so booleans need their own test
            if values is None or not values <= {0, 1} or bool in set(map(type, ann)):
                raise ManifestSyntax(f"{where}: annotations must be 0 or 1")
            if len(ann) != num_segments:
                raise ManifestSyntax(
                    f"{where}: {len(ann)} annotations but the video has "
                    f"{num_segments} segments"
                )
            if category != THEFT_CATEGORY and 1 in values:
                raise ManifestSyntax(
                    f"{where}: theft annotations on a {category} video"
                )
            annotations = tuple(map(int, ann))
        records.append(
            VideoRecord(
                video_id=vid,
                split=split,
                category=category,
                feature_path=feature_path,
                pose_path=pose_path,
                annotations=annotations,
                clip_count=clip_count,
                num_segments=num_segments,
            )
        )

    return Manifest(
        name=name,
        feature_dim=feature_dim,
        clip_length=clip_length,
        segment_length=segment_length,
        image_width=width,
        image_height=height,
        videos=tuple(records),
        metadata=metadata,
        path=path,
    )


# -------------------------------------------------------------------- bags

@dataclass(frozen=True)
class BagSet:
    """A split's bags stacked in manifest order: bag b is rows
    `offsets[b]:offsets[b + 1]` of `embeddings`, as in `ScoredSplit`."""

    embeddings: np.ndarray  # (rows, dim)
    offsets: np.ndarray  # (bags + 1,) int64, from 0 to rows
    is_positive: np.ndarray  # (bags,) bool


def load_video_bag(manifest: Manifest, video_id: str, fusion_mode: FusionMode) -> np.ndarray:
    """One video's (segments, dim) bag: aggregate clips, pool pose, fuse.

    Each stage runs once over the whole video, on (segments, ...) arrays.
    The feature file must still hold the clip count and dimension the
    manifest was loaded with, which its segments and annotations were
    derived from. A video with no segment loads into the manifest and
    raises EmptyVideo here, so it stops only the commands that need its bag.
    """
    rec = manifest.record(video_id)
    clips = read_feature_file(rec.feature_path)
    if clips.shape[0] != rec.clip_count:
        raise CorruptFeatureFile(
            f"{rec.feature_path}: {clips.shape[0]} clips, but the manifest was "
            f"loaded with {rec.clip_count}"
        )
    if clips.shape[1] != manifest.feature_dim:
        raise InconsistentDimension(
            f"{rec.feature_path}: file dimension {clips.shape[1]} != manifest "
            f"feature_dim {manifest.feature_dim}"
        )
    num_segments = rec.num_segments
    if num_segments == 0:
        raise EmptyVideo(
            f"{rec.feature_path} ({video_id!r}): video of "
            f"{rec.clip_count * manifest.clip_length} frames is shorter than one "
            f"segment of {manifest.segment_length} frames"
        )
    clips_per_segment = manifest.segment_length // manifest.clip_length
    appearance = aggregate_segment(
        clips[: num_segments * clips_per_segment].reshape(
            num_segments, clips_per_segment, clips.shape[1]
        )
    )

    pose = None
    if fusion_mode is FusionMode.GLOBAL_LOCAL_CONCAT:
        if rec.pose_path is None:
            raise MissingPose(f"video {video_id!r} has no pose file in the manifest")
        try:
            doc = rec.pose_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPoseFile(f"{rec.pose_path}: {_not_utf8(exc)}") from exc
        try:
            candidates = parse_pose_document(doc)
        except MalformedPoseFile as exc:
            raise MalformedPoseFile(f"{rec.pose_path}: {exc}") from exc
        covered = num_segments * manifest.segment_length
        if len(candidates) < covered:
            raise MalformedPoseFile(
                f"{rec.pose_path}: {len(candidates)} pose frames but segments "
                f"cover {covered} frames"
            )
        pose = pool_pose(
            pose_feature(
                candidates[:covered], manifest.image_width, manifest.image_height
            ),
            manifest.segment_length,
        )

    return fuse(appearance, pose, fusion_mode)


def bag_width(manifest: Manifest, fusion_mode: FusionMode) -> int:
    """The embedding width of every bag `load_video_bag` gives for this
    manifest and fusion mode."""
    if fusion_mode is FusionMode.GLOBAL_LOCAL_CONCAT:
        return manifest.feature_dim + SEGMENT_FEATURE_DIM
    return manifest.feature_dim


def load_split_bags(manifest: Manifest, split: str, fusion_mode: FusionMode) -> BagSet:
    """All bags of one split, each loaded by `load_video_bag` into its rows
    of one array sized from the records' segment counts."""
    records = manifest.split_records(split)
    offsets = np.cumsum([0] + [rec.num_segments for rec in records], dtype=np.int64)
    embeddings = np.empty((offsets[-1], bag_width(manifest, fusion_mode)))
    for rec, lo, hi in zip(records, offsets[:-1], offsets[1:]):
        embeddings[lo:hi] = load_video_bag(manifest, rec.video_id, fusion_mode)
    is_positive = np.array([rec.is_positive for rec in records], dtype=bool)
    return BagSet(embeddings, offsets, is_positive)


# ------------------------------------------------------------- checkpoints

@dataclass(frozen=True)
class CheckpointMeta:
    """Header fields besides the widths, which the loaded head carries."""

    seed: int
    fusion_mode: FusionMode


def save_checkpoint(head: ScoringHead, config, path) -> None:
    """Persist a head; `config` supplies the seed and fusion-mode tag."""
    header = _CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, head.input_dim, *head.layer_dims,
        _FUSION_TAGS[config.fusion_mode], config.seed,
    )
    params = (np.ascontiguousarray(p, dtype="<f8").tobytes() for p in head.params())
    write_atomic(path, chain([header], params))


def load_checkpoint(path) -> tuple[ScoringHead, CheckpointMeta]:
    """Bit-exact inverse of save_checkpoint; the header is outside input."""
    data = Path(path).read_bytes()
    if len(data) < _CHECKPOINT_HEADER.size:
        raise CorruptCheckpoint(f"{path}: header truncated at byte {len(data)}")
    magic, version, input_dim, h1, h2, out, tag, seed = _CHECKPOINT_HEADER.unpack(
        data[: _CHECKPOINT_HEADER.size]
    )
    if magic != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersion(
            f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    if tag not in _TAG_FUSIONS:
        raise CorruptCheckpoint(f"{path}: unknown fusion tag {tag}")
    for name, value in (("input_dim", input_dim), ("hidden1", h1), ("hidden2", h2)):
        if value == 0:
            raise CorruptCheckpoint(f"{path}: header field {name} is 0")
    if out != OUTPUT:
        raise CorruptCheckpoint(f"{path}: header field out is {out}, expected {OUTPUT}")
    shapes = [(input_dim, h1), (h1,), (h1, h2), (h2,), (h2, out), (out,)]
    # Python ints: header widths up to 2**32 - 1 overflow an int64 product
    counts = [math.prod(s) for s in shapes]
    expected = _CHECKPOINT_HEADER.size + sum(counts) * 8
    if len(data) != expected:
        raise CorruptCheckpoint(
            f"{path}: expected {expected} bytes, file ends at byte offset {len(data)}"
        )
    params = []
    offset = _CHECKPOINT_HEADER.size
    for shape, count in zip(shapes, counts):
        arr = np.frombuffer(data, dtype="<f8", offset=offset, count=count)
        params.append(arr.reshape(shape).copy())
        offset += count * 8
    head = ScoringHead(*params)
    if not all(np.all(np.isfinite(p)) for p in head.params()):
        raise CorruptCheckpoint(f"{path}: non-finite parameter values")
    return head, CheckpointMeta(seed=seed, fusion_mode=_TAG_FUSIONS[tag])
