import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from ptde import data
from ptde.data import (
    CLIP_FRAMES,
    CheckpointMeta,
    load_checkpoint,
    load_manifest,
    load_split_bags,
    load_video_bag,
    read_feature_file,
    save_checkpoint,
    write_feature_file,
)
from ptde.errors import (
    BadCategory,
    CorruptCheckpoint,
    CorruptFeatureFile,
    DimensionMismatch,
    EmptyVideo,
    InconsistentDimension,
    MalformedPoseFile,
    ManifestSyntax,
    MissingFeatureFile,
    MissingPose,
    UnknownVideo,
    UnsupportedVersion,
)
from ptde.fusion import FusionMode
from ptde.scoring import init_head, score_segments
from ptde.segmenting import aggregate_segment
from ptde.trainer import TrainConfig

DIM = 6


def pose_frames(n, x=100.0, y=80.0, conf=0.9):
    return [[[[x, y, conf]] * 18] for _ in range(n)]


def write_pose(path, n_frames):
    path.write_text(json.dumps(pose_frames(n_frames)), encoding="utf-8")


def make_dataset(root, videos, segment_length=32, feature_dim=DIM, extra=None):
    """Write feature/pose files plus a manifest; videos = list of dicts."""
    (root / "feat").mkdir(exist_ok=True)
    entries = []
    for v in videos:
        vid = v["id"]
        clips = v.get("clips")
        if clips is None:
            rng = np.random.default_rng(abs(hash(vid)) % 2**32)
            clips = rng.standard_normal((v.get("clip_count", 6), feature_dim))
        write_feature_file(root / "feat" / f"{vid}.ptdf", clips)
        entry = {
            "id": vid,
            "split": v.get("split", "train"),
            "category": v.get("category", "PackageTheft"),
            "feature_file": f"feat/{vid}.ptdf",
        }
        if v.get("pose_frames") is not None:
            write_pose(root / "feat" / f"{vid}.pose.json", v["pose_frames"])
            entry["pose_file"] = f"feat/{vid}.pose.json"
        if "annotations" in v:
            entry["annotations"] = v["annotations"]
        entries.append(entry)
    manifest = {
        "name": "unit-test",
        "feature_dim": feature_dim,
        "clip_length": CLIP_FRAMES,
        "segment_length": segment_length,
        "videos": entries,
    }
    if extra:
        manifest.update(extra)
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def in_place_write_feature_file(path, clips):
    """The writer that `write_feature_file` replaced: it opened the target
    in place, so a failed write could leave a partial file."""
    clips = np.ascontiguousarray(clips, dtype="<f4")
    if clips.ndim != 2:
        raise ValueError(f"clips must be a (count, dim) array, got {clips.shape}")
    header = struct.pack("<4sIII", b"PTDF", 1, clips.shape[0], clips.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(clips.tobytes())


class TestFeatureFiles:
    @pytest.mark.parametrize("shape", [(0, 4), (1, 1), (7, 64), (3, 4096)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bytes_match_the_in_place_writer(self, tmp_path, shape, dtype, order):
        clips = np.random.default_rng(7).standard_normal(shape).astype(dtype, order=order)
        write_feature_file(tmp_path / "new.ptdf", clips)
        in_place_write_feature_file(tmp_path / "old.ptdf", clips)
        assert (tmp_path / "new.ptdf").read_bytes() == (tmp_path / "old.ptdf").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.ptdf", "old.ptdf"]

    def test_round_trip(self, tmp_path):
        clips = np.random.default_rng(0).standard_normal((5, DIM)).astype(np.float32)
        path = tmp_path / "x.ptdf"
        write_feature_file(path, clips)
        out = read_feature_file(path)
        assert out.shape == (5, DIM)
        np.testing.assert_array_equal(out.astype(np.float32), clips)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ptdf"
        write_feature_file(path, np.zeros((2, DIM)))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFeatureFile, match="magic"):
            read_feature_file(path)

    def test_truncated_reports_offset(self, tmp_path):
        path = tmp_path / "x.ptdf"
        write_feature_file(path, np.ones((4, DIM)))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CorruptFeatureFile, match=f"byte offset {len(data) - 7}"):
            read_feature_file(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.ptdf"
        write_feature_file(path, np.ones((4, DIM)))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 3)
        with pytest.raises(CorruptFeatureFile):
            read_feature_file(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "x.ptdf"
        clips = np.ones((2, DIM), dtype=np.float32)
        clips[1, 3] = np.nan
        write_feature_file(path, clips)
        with pytest.raises(CorruptFeatureFile, match="non-finite"):
            read_feature_file(path)

    def test_file_shrinking_before_the_read_is_checked(self, tmp_path, monkeypatch):
        path = tmp_path / "x.ptdf"
        write_feature_file(path, np.ones((4, DIM)))
        size = path.stat().st_size
        read_bytes = Path.read_bytes

        def truncate_then_read(self):
            with open(self, "r+b") as fh:
                fh.truncate(size - 8)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", truncate_then_read)
        with pytest.raises(CorruptFeatureFile, match=f"byte offset {size - 8}"):
            read_feature_file(path)


class TestLoadManifest:
    def test_minimal_manifest(self, tmp_path):
        path = make_dataset(
            tmp_path,
            [{"id": "a"}, {"id": "b", "category": "Pickup", "split": "test"}],
        )
        manifest = load_manifest(path)
        assert len(manifest.videos) == 2
        assert manifest.record("a").is_positive
        assert not manifest.record("b").is_positive
        assert manifest.split_records("test")[0].video_id == "b"

    def test_missing_manifest_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ManifestSyntax, match="nope.json"):
            load_manifest(missing)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ManifestSyntax):
            load_manifest(path)

    def test_missing_feature_file_names_path(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a"}])
        (tmp_path / "feat" / "a.ptdf").unlink()
        with pytest.raises(MissingFeatureFile, match="a.ptdf"):
            load_manifest(path)

    def test_bad_category_closed_enum(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a", "category": "Theft"}])
        with pytest.raises(BadCategory, match="Theft"):
            load_manifest(path)

    def test_inconsistent_dimension(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a"}], extra={"feature_dim": DIM + 1})
        with pytest.raises(InconsistentDimension):
            load_manifest(path)

    def test_bad_clip_length(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a"}], extra={"clip_length": 8})
        with pytest.raises(ManifestSyntax, match="clip_length"):
            load_manifest(path)

    def test_segment_length_not_multiple_of_clip(self, tmp_path):
        for segment_length in (24, 8, 0, -16):
            path = make_dataset(tmp_path, [{"id": "a"}], segment_length=segment_length)
            with pytest.raises(ManifestSyntax, match="segment_length"):
                load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a"}])
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["videos"].append(raw["videos"][0])
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ManifestSyntax, match="duplicate"):
            load_manifest(path)

    def test_annotation_length_checked(self, tmp_path):
        # 6 clips * 16 frames = 96 frames -> 3 segments of 32
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 6, "annotations": [1, 0]}]
        )
        with pytest.raises(ManifestSyntax, match="annotations"):
            load_manifest(path)

    def test_theft_annotation_on_normal_video(self, tmp_path):
        path = make_dataset(
            tmp_path,
            [{"id": "a", "category": "Delivery", "clip_count": 6,
              "annotations": [0, 1, 0]}],
        )
        with pytest.raises(ManifestSyntax, match="Delivery"):
            load_manifest(path)

    def test_annotation_values_checked(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 6, "annotations": [1, 0, 2]}]
        )
        with pytest.raises(ManifestSyntax):
            load_manifest(path)

    @pytest.mark.parametrize(
        "annotations, expected",
        [
            ([True, False], None),
            ([float("nan"), 0], None),
            (["1", 0], None),
            ([[1], 0], None),
            ([1.0, 0.0], (1, 0)),
            ([-0.0, 1], (0, 1)),
        ],
    )
    def test_annotation_value_types(self, tmp_path, annotations, expected):
        # 4 clips * 16 frames = 64 frames -> 2 segments of 32
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 4, "annotations": annotations}]
        )
        if expected is None:
            with pytest.raises(ManifestSyntax, match="must be 0 or 1"):
                load_manifest(path)
        else:
            assert load_manifest(path).record("a").annotations == expected


class TestManifestContract:
    """Each feature file is probed for a regular file and a whole header,
    and each annotation list for 0/1 values, with these errors."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "dangling symlink"])
    def test_feature_file_that_is_not_a_file(self, tmp_path, kind):
        path = make_dataset(tmp_path, [{"id": "a"}, {"id": "b"}])
        feature = tmp_path / "feat" / "b.ptdf"
        feature.unlink()
        if kind == "directory":
            feature.mkdir()
        elif kind == "dangling symlink":
            feature.symlink_to(tmp_path / "feat" / "gone.ptdf")
        with pytest.raises(MissingFeatureFile) as err:
            load_manifest(path)
        assert str(err.value) == str(feature)

    def test_symlink_to_a_feature_file_is_read(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a", "clip_count": 6}])
        feature = tmp_path / "feat" / "a.ptdf"
        feature.rename(tmp_path / "target.ptdf")
        feature.symlink_to(tmp_path / "target.ptdf")
        assert load_manifest(path).record("a").clip_count == 6

    @pytest.mark.parametrize("size", [0, 1, 15])
    def test_truncated_header_names_its_byte(self, tmp_path, size):
        path = make_dataset(tmp_path, [{"id": "a"}])
        feature = tmp_path / "feat" / "a.ptdf"
        feature.write_bytes(feature.read_bytes()[:size])
        with pytest.raises(CorruptFeatureFile) as err:
            load_manifest(path)
        assert str(err.value) == f"{feature}: header truncated at byte {size}"

    def test_short_payload_names_its_end(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a", "clip_count": 2}])
        feature = tmp_path / "feat" / "a.ptdf"
        feature.write_bytes(feature.read_bytes()[:-4])
        with pytest.raises(CorruptFeatureFile) as err:
            load_manifest(path)
        expected = 16 + 2 * DIM * 4
        assert str(err.value) == (
            f"{feature}: expected {expected} bytes, file ends at byte offset {expected - 4}"
        )

    @pytest.mark.parametrize("bad", [True, False, 2, -1, 0.5, [1], {}, "1", None])
    def test_annotation_that_is_not_0_or_1(self, tmp_path, bad):
        # 4 clips * 16 frames = 64 frames -> 2 segments of 32
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 4, "annotations": [0, bad]}]
        )
        with pytest.raises(ManifestSyntax) as err:
            load_manifest(path)
        assert str(err.value) == f"{path} videos[0]: annotations must be 0 or 1"

    def test_bad_value_is_reported_before_the_length(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 4, "annotations": [1, 0, "1"]}]
        )
        with pytest.raises(ManifestSyntax, match="must be 0 or 1"):
            load_manifest(path)

    @pytest.mark.parametrize("annotations", [[0.0, 1.0], [1.0, 0], [0, 1]])
    def test_whole_floats_are_stored_as_ints(self, tmp_path, annotations):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 4, "annotations": annotations}]
        )
        stored = load_manifest(path).record("a").annotations
        assert stored == tuple(int(v) for v in annotations)
        assert isinstance(stored, tuple)
        assert {type(v) for v in stored} == {int}

    def test_length_mismatch_message(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 6, "annotations": [1, 0]}]
        )
        with pytest.raises(ManifestSyntax) as err:
            load_manifest(path)
        assert str(err.value) == (
            f"{path} videos[0]: 2 annotations but the video has 3 segments"
        )


class TestLoadVideoBag:
    def test_segment_arithmetic(self, tmp_path):
        # 96 frames with L=32 (2 clips per segment) -> 3 segments
        path = make_dataset(tmp_path, [{"id": "a", "clip_count": 6}])
        manifest = load_manifest(path)
        bag = load_video_bag(manifest, "a", FusionMode.GLOBAL_ONLY)
        assert bag.shape == (3, DIM)

    def test_aggregation_matches_segmenting_module(self, tmp_path):
        clips = np.random.default_rng(1).standard_normal((4, DIM))
        path = make_dataset(tmp_path, [{"id": "a", "clips": clips}])
        manifest = load_manifest(path)
        bag = load_video_bag(manifest, "a", FusionMode.GLOBAL_ONLY)
        stored = read_feature_file(tmp_path / "feat" / "a.ptdf")
        np.testing.assert_allclose(bag[0], aggregate_segment(stored[:2]))
        np.testing.assert_allclose(bag[1], aggregate_segment(stored[2:4]))

    def test_missing_pose_for_fusion(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a", "clip_count": 6}])
        manifest = load_manifest(path)
        with pytest.raises(MissingPose):
            load_video_bag(manifest, "a", FusionMode.GLOBAL_LOCAL_CONCAT)

    def test_fused_dimensions_and_pose_values(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 6, "pose_frames": 96}]
        )
        manifest = load_manifest(path)
        bag = load_video_bag(manifest, "a", FusionMode.GLOBAL_LOCAL_CONCAT)
        assert bag.shape == (3, DIM + 54)
        # constant pose at (100, 80, 0.9) on the default 320x240 image
        np.testing.assert_allclose(bag[0, DIM::3], 100.0 / 320)
        np.testing.assert_allclose(bag[0, DIM + 1 :: 3], 80.0 / 240)
        np.testing.assert_allclose(bag[0, DIM + 2 :: 3], 0.9)

    def test_pose_document_too_short(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 6, "pose_frames": 50}]
        )
        manifest = load_manifest(path)
        with pytest.raises(MalformedPoseFile, match="cover"):
            load_video_bag(manifest, "a", FusionMode.GLOBAL_LOCAL_CONCAT)

    def test_video_shorter_than_segment(self, tmp_path):
        # the manifest loads; only the bag load fails
        for clip_count in (0, 1):
            path = make_dataset(tmp_path, [{"id": "a", "clip_count": clip_count}])
            manifest = load_manifest(path)
            assert manifest.record("a").num_segments == 0
            message = (
                f"video of {clip_count * CLIP_FRAMES} frames is shorter than one "
                f"segment of 32 frames"
            )
            with pytest.raises(EmptyVideo, match=re.escape(message)):
                load_video_bag(manifest, "a", FusionMode.GLOBAL_ONLY)

    def test_unknown_video(self, tmp_path):
        path = make_dataset(tmp_path, [{"id": "a"}])
        manifest = load_manifest(path)
        with pytest.raises(UnknownVideo):
            load_video_bag(manifest, "zzz", FusionMode.GLOBAL_ONLY)

    def test_deterministic_and_idempotent(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 8, "pose_frames": 128}]
        )
        manifest = load_manifest(path)
        a = load_video_bag(manifest, "a", FusionMode.GLOBAL_LOCAL_CONCAT)
        b = load_video_bag(manifest, "a", FusionMode.GLOBAL_LOCAL_CONCAT)
        assert np.array_equal(a, b)

    def test_ground_truth_carried(self, tmp_path):
        path = make_dataset(
            tmp_path, [{"id": "a", "clip_count": 6, "annotations": [0, 1, 0]}]
        )
        assert load_manifest(path).record("a").annotations == (0, 1, 0)


class TestLoadSplitBags:
    VIDEOS = [
        {"id": "a", "clip_count": 6, "pose_frames": 96},
        {"id": "t", "clip_count": 4, "pose_frames": 64, "split": "test"},
        {"id": "b", "clip_count": 2, "pose_frames": 32, "category": "Pickup"},
        {"id": "c", "clip_count": 8, "pose_frames": 128, "category": "Delivery"},
    ]

    @pytest.mark.parametrize("mode", list(FusionMode))
    def test_stacks_the_split_bags_in_manifest_order(self, tmp_path, monkeypatch, mode):
        manifest = load_manifest(make_dataset(tmp_path, self.VIDEOS))
        loaded = []

        def counted(manifest, video_id, fusion_mode):
            loaded.append(video_id)
            return load_video_bag(manifest, video_id, fusion_mode)

        monkeypatch.setattr(data, "load_video_bag", counted)
        bags = load_split_bags(manifest, "train", mode)
        assert loaded == ["a", "b", "c"]
        assert bags.offsets.tolist() == [0, 3, 4, 8]
        assert bags.is_positive.tolist() == [True, False, False]
        expected = [load_video_bag(manifest, v, mode) for v in loaded]
        assert np.array_equal(bags.embeddings, np.concatenate(expected))

    def test_empty_split(self, tmp_path):
        manifest = load_manifest(make_dataset(tmp_path, self.VIDEOS[:1]))
        bags = load_split_bags(manifest, "test", FusionMode.GLOBAL_LOCAL_CONCAT)
        assert bags.embeddings.shape == (0, DIM + 54)
        assert bags.offsets.tolist() == [0]
        assert bags.is_positive.shape == (0,)

    def test_video_shorter_than_segment(self, tmp_path):
        videos = [{"id": "a"}, {"id": "b", "clip_count": 1}]
        manifest = load_manifest(make_dataset(tmp_path, videos))
        with pytest.raises(EmptyVideo, match="shorter than one segment"):
            load_split_bags(manifest, "train", FusionMode.GLOBAL_ONLY)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        head = init_head(17, 99)
        config = TrainConfig(seed=99, fusion_mode=FusionMode.GLOBAL_LOCAL_CONCAT)
        path = tmp_path / "model.ckpt"
        save_checkpoint(head, config, path)
        loaded, meta = load_checkpoint(path)
        for a, b in zip(head.params(), loaded.params()):
            assert a.tobytes() == b.tobytes()
        assert loaded.input_dim == 17
        assert loaded.layer_dims == (512, 32, 1)
        assert meta == CheckpointMeta(seed=99, fusion_mode=FusionMode.GLOBAL_LOCAL_CONCAT)

    def test_save_load_save_identical_bytes(self, tmp_path):
        head = init_head(9, 3)
        config = TrainConfig(seed=3, fusion_mode=FusionMode.GLOBAL_ONLY)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(head, config, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, config, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_head(4, 0), TrainConfig(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_head(4, 0), TrainConfig(), path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 999)
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_head(4, 0), TrainConfig(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_dim_mismatch_surfaces_at_use(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_head(4, 0), TrainConfig(), path)
        head, _ = load_checkpoint(path)
        with pytest.raises(DimensionMismatch):
            score_segments(head, np.zeros((2, 5)))


class TestCheckpointHeader:
    """Header widths are outside input: they are checked before any array
    is sized from them."""

    @staticmethod
    def _write(path, input_dim, h1, h2, out, floats=None):
        if floats is None:
            floats = input_dim * h1 + h1 + h1 * h2 + h2 + h2 * out + out
        header = struct.pack("<4sIIIIIIq", b"PTDE", 1, input_dim, h1, h2, out, 0, 0)
        path.write_bytes(header + bytes(8 * floats))

    def test_width_product_past_int64_is_a_size_error(self, tmp_path):
        # (2**32 - 1)**2 + ... wraps to 2 floats in int64; 52 bytes in all
        path = tmp_path / "model.ckpt"
        self._write(path, 2**32 - 1, 2**32 - 1, 1, 1, floats=2)
        assert path.stat().st_size == 52
        with pytest.raises(CorruptCheckpoint, match="expected .* bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "widths, field",
        [
            ((0, 3, 2, 1), "input_dim"),
            ((4, 0, 2, 1), "hidden1"),
            ((4, 3, 0, 1), "hidden2"),
            ((4, 3, 2, 0), "out"),
            ((4, 3, 2, 2), "out"),
        ],
        ids=["input_dim-0", "hidden1-0", "hidden2-0", "out-0", "out-2"],
    )
    def test_bad_width_names_the_field(self, tmp_path, widths, field):
        # the payload matches the widths, so only the field check can stop it
        path = tmp_path / "model.ckpt"
        self._write(path, *widths)
        with pytest.raises(CorruptCheckpoint, match=f"header field {field} is"):
            load_checkpoint(path)
