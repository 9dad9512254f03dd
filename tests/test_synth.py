import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptde import synth
from ptde.data import load_manifest, load_split_bags, load_video_bag
from ptde.fusion import FusionMode
from ptde.pose import JOINT_COUNT, parse_pose_document
from ptde.synth import SynthSpec, generate_synthetic

SMALL_COUNTS = dict(
    train_counts={"PackageTheft": 3, "Pickup": 1, "Delivery": 1, "Irrelevant": 1},
    test_counts={"PackageTheft": 2, "Pickup": 1, "Delivery": 1, "Irrelevant": 1},
)


def small_spec(**overrides):
    kwargs = dict(seed=5, feature_dim=8, **SMALL_COUNTS)
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def oracle_clipped_points(rng, num_frames, width, height):
    """The (frames, joints, 2) float pixels of a pose document, clipped to
    the image, and its (frames, joints) confidences in thousandths."""
    scale = float(rng.uniform(0.35, 0.55)) * height
    cx = float(rng.uniform(0.3, 0.7)) * width
    cy = float(rng.uniform(0.2, 0.4)) * height
    steps = rng.normal(0.0, (2.0, 1.0), size=(num_frames, 2))
    centers = np.empty((num_frames, 2))
    for i in range(num_frames):
        cx = min(max(cx + steps[i, 0], 0.25 * width), 0.75 * width)
        cy = min(max(cy + steps[i, 1], 0.15 * height), 0.45 * height)
        centers[i] = (cx, cy)
    jitter = rng.normal(0.0, 0.01, size=(num_frames, JOINT_COUNT, 2))
    pts = (synth._SKELETON[None] + jitter) * scale + centers[:, None, :]
    np.clip(pts[..., 0], 0.0, width, out=pts[..., 0])
    np.clip(pts[..., 1], 0.0, height, out=pts[..., 1])
    return pts, rng.integers(300, 1000, size=(num_frames, JOINT_COUNT))


def oracle_pose_document_json(rng, num_frames, width, height):
    """The per-joint f-string writer that `synth._pose_document_json` replaced."""
    pts, conf = oracle_clipped_points(rng, num_frames, width, height)
    xy = np.rint(pts).astype(np.int64)
    frames = []
    for f in range(num_frames):
        person = ",".join(
            f"[{xy[f, j, 0]},{xy[f, j, 1]},0.{conf[f, j]:03d}]"
            for j in range(JOINT_COUNT)
        )
        frames.append(f"[[{person}]]")
    return "[" + ",".join(frames) + "]"


class TestPoseDocument:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_frames=st.integers(0, 1100),
        width=st.integers(1, 5000),
        height=st.integers(1, 5000),
    )
    @example(seed=0, num_frames=0, width=320, height=240)
    @example(seed=1, num_frames=1, width=1, height=1)
    @example(seed=2, num_frames=1100, width=5000, height=5000)
    # digit-count boundaries; a taller image clips x at 0 and at the width
    @example(seed=3, num_frames=30, width=9, height=40)
    @example(seed=4, num_frames=30, width=10, height=50)
    @example(seed=5, num_frames=30, width=99, height=400)
    @example(seed=6, num_frames=30, width=100, height=500)
    @example(seed=7, num_frames=30, width=999, height=4000)
    @example(seed=8, num_frames=30, width=1000, height=5000)
    @example(seed=9, num_frames=30, width=10**4, height=5 * 10**4)
    # nothing may be sized by the image size
    @example(seed=10, num_frames=30, width=10**9, height=3)
    @example(seed=11, num_frames=30, width=10**12, height=7)
    def test_matches_per_joint_writer(self, seed, num_frames, width, height):
        expected = oracle_pose_document_json(
            np.random.default_rng(seed), num_frames, width, height
        )
        doc = synth._pose_document_json(
            np.random.default_rng(seed), num_frames, width, height
        )
        assert doc == expected

        # the parser reads back the oracle's integer pixels and 0.ccc confidences
        values = np.array(json.loads(expected), dtype=np.float64).reshape(
            num_frames, 1, JOINT_COUNT, 3
        )
        np.testing.assert_array_equal(parse_pose_document(doc), values)
        coords, conf = values[..., :2], values[..., 2]
        np.testing.assert_array_equal(coords, np.rint(coords))
        assert np.all((coords[..., 0] <= width) & (coords[..., 1] <= height))
        millis = np.rint(conf * 1000)
        np.testing.assert_array_equal(conf, millis / 1000)
        assert np.all((millis >= 300) & (millis <= 999))

    @pytest.mark.parametrize(
        "width, height",
        [
            (2**63, 240),
            (2**63, 2**66),  # x clips at 0 and at the width
            (2**70, 240),
            (2**70, 2**73),
            (int(sys.float_info.max), 240),
            (int(sys.float_info.max), int(sys.float_info.max)),
        ],
        ids=["2^63", "2^63-tall", "2^70", "2^70-tall", "float-max", "float-max-square"],
    )
    def test_pixels_past_int64_read_back(self, width, height):
        """Past int64, a pixel's digits come from the exact integer."""
        pts, conf = oracle_clipped_points(np.random.default_rng(4), 2, width, height)
        doc = synth._pose_document_json(np.random.default_rng(4), 2, width, height)
        values = parse_pose_document(doc)
        assert values.shape == (2, 1, JOINT_COUNT, 3)
        np.testing.assert_array_equal(values[:, 0, :, :2], np.rint(pts))
        np.testing.assert_array_equal(values[:, 0, :, 2], conf / 1000)
        assert np.rint(pts).max() >= 2.0**62

    def test_tree_matches_per_joint_writer(self, tmp_path, monkeypatch):
        generate_synthetic(small_spec(), tmp_path / "new")
        monkeypatch.setattr(synth, "_pose_document_json", oracle_pose_document_json)
        generate_synthetic(small_spec(), tmp_path / "old")
        new, old = tree_bytes(tmp_path / "new"), tree_bytes(tmp_path / "old")
        assert new == old
        # atomic writes leave no temporary file beside the dataset's own
        manifest = json.loads(new["manifest.json"])
        assert set(new) == {"manifest.json"} | {
            v[key] for v in manifest["videos"] for key in ("feature_file", "pose_file")
        }


class TestSpecValidation:
    def test_table_defaults(self):
        spec = SynthSpec()
        assert spec.train_counts == {
            "PackageTheft": 60, "Pickup": 20, "Delivery": 20, "Irrelevant": 20
        }
        assert spec.test_counts == {
            "PackageTheft": 40, "Pickup": 10, "Delivery": 20, "Irrelevant": 10
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"class_separation": -1.0},
            {"noise_scale": 0.0},
            {"theft_fraction": 0.0},
            {"theft_fraction": 1.5},
            {"segments_min": 0},
            {"segment_length": 20},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            small_spec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"image_width": 0},
            {"image_height": -5},
            {"image_width": 320.5},
            {"image_width": True},
            {"image_height": int(sys.float_info.max) + 1},
        ],
    )
    def test_image_sizes_follow_the_manifest_rule(self, tmp_path, kwargs):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="within float64 range"):
            generate_synthetic(small_spec(**kwargs), out)
        assert not out.exists()

    def test_largest_image_size_is_accepted(self):
        spec = small_spec(image_height=int(sys.float_info.max))
        assert spec.image_height == sys.float_info.max

    def test_counts_must_cover_every_category(self):
        counts = dict(SMALL_COUNTS["test_counts"])
        del counts["Irrelevant"]
        with pytest.raises(ValueError, match=r"test_counts must cover exactly \('PackageTheft',"):
            small_spec(test_counts=counts)

    def test_needs_both_classes(self):
        counts = dict(SMALL_COUNTS["train_counts"])
        counts["PackageTheft"] = 0
        with pytest.raises(ValueError):
            small_spec(train_counts=counts)


class TestGenerate:
    def test_category_distribution_matches_table(self, tmp_path):
        # full-size default dataset: 60/20/20/20 training, 40/10/20/10 testing
        manifest = load_manifest(generate_synthetic(SynthSpec(seed=1), tmp_path))
        counts = {}
        for rec in manifest.videos:
            counts[(rec.split, rec.category)] = counts.get((rec.split, rec.category), 0) + 1
        assert counts[("train", "PackageTheft")] == 60
        assert counts[("train", "Pickup")] == 20
        assert counts[("train", "Delivery")] == 20
        assert counts[("train", "Irrelevant")] == 20
        assert counts[("test", "PackageTheft")] == 40
        assert counts[("test", "Pickup")] == 10
        assert counts[("test", "Delivery")] == 20
        assert counts[("test", "Irrelevant")] == 10

    def test_byte_identical_for_same_spec(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(small_spec(), a)
        generate_synthetic(small_spec(), b)
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert set(ta) == set(tb)
        assert all(ta[k] == tb[k] for k in ta)

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(small_spec(seed=1), a)
        generate_synthetic(small_spec(seed=2), b)
        assert tree_bytes(a) != tree_bytes(b)

    def test_separable_oracle_is_perfect(self, tmp_path):
        spec = small_spec(class_separation=1.0, noise_scale=0.1)
        manifest = load_manifest(generate_synthetic(spec, tmp_path))
        assert manifest.metadata["oracle_auc"] == 1.0

    def test_zero_separation_oracle_near_chance(self, tmp_path):
        spec = SynthSpec(seed=2, feature_dim=8, class_separation=0.0)
        manifest = load_manifest(generate_synthetic(spec, tmp_path))
        assert abs(manifest.metadata["oracle_auc"] - 0.5) < 0.1

    def test_theft_annotations_form_contiguous_block(self, tmp_path):
        manifest = load_manifest(generate_synthetic(small_spec(), tmp_path))
        for rec in manifest.videos:
            ann = list(rec.annotations)
            if rec.category == "PackageTheft":
                ones = [i for i, a in enumerate(ann) if a == 1]
                assert ones, "theft video without theft segments"
                assert ones == list(range(ones[0], ones[-1] + 1))
            else:
                assert not any(ann)

    def test_bags_load_in_both_modes(self, tmp_path):
        manifest = load_manifest(generate_synthetic(small_spec(), tmp_path))
        vid = manifest.videos[0].video_id
        plain = load_video_bag(manifest, vid, FusionMode.GLOBAL_ONLY)
        fused = load_video_bag(manifest, vid, FusionMode.GLOBAL_LOCAL_CONCAT)
        assert plain.shape[1] == 8
        assert fused.shape[1] == 8 + 54
        # the appearance part is identical across modes
        np.testing.assert_array_equal(fused[:, :8], plain)
        # pose values are normalized coordinates/confidences
        assert np.all(fused[:, 8:] >= 0.0)
        assert np.all(fused[:, 8:] <= 1.0)

    @pytest.mark.parametrize("size", [(1, 1), (10**12, 7)])
    def test_loader_reads_extreme_image_sizes(self, tmp_path, size):
        spec = small_spec(image_width=size[0], image_height=size[1])
        manifest = load_manifest(generate_synthetic(spec, tmp_path))
        assert (manifest.image_width, manifest.image_height) == size
        bags = load_split_bags(manifest, "test", FusionMode.GLOBAL_LOCAL_CONCAT)
        assert np.all((bags.embeddings[:, 8:] >= 0.0) & (bags.embeddings[:, 8:] <= 1.0))

    def test_train_split_has_both_classes(self, tmp_path):
        manifest = load_manifest(generate_synthetic(small_spec(), tmp_path))
        bags = load_split_bags(manifest, "train", FusionMode.GLOBAL_ONLY)
        assert bags.is_positive.any()
        assert not bags.is_positive.all()

    def test_generator_metadata_snapshot(self, tmp_path):
        spec = small_spec()
        manifest = load_manifest(generate_synthetic(spec, tmp_path))
        gen = manifest.metadata["generator"]
        assert gen["seed"] == spec.seed
        assert gen["feature_dim"] == spec.feature_dim
        assert gen["class_separation"] == spec.class_separation
