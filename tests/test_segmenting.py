import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptde.data import CLIP_FRAMES, load_manifest, load_video_bag, write_feature_file
from ptde.errors import (
    DimensionMismatch,
    EmptySegment,
    EmptyVideo,
    ManifestSyntax,
    NonFiniteInput,
)
from ptde.fusion import FusionMode
from ptde.segmenting import aggregate_segment, l2_normalize

finite_floats = st.floats(
    min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False
)


def one_video(root, clip_count, segment_length):
    """A one-video manifest; returns it loaded and the stored clips."""
    clips = (
        np.random.default_rng(clip_count)
        .standard_normal((clip_count, 4))
        .astype(np.float32)
        .astype(np.float64)
    )
    write_feature_file(root / "a.ptdf", clips)
    manifest = {
        "name": "segments",
        "feature_dim": 4,
        "clip_length": CLIP_FRAMES,
        "segment_length": segment_length,
        "videos": [{
            "id": "a", "split": "train", "category": "PackageTheft",
            "feature_file": "a.ptdf",
        }],
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return load_manifest(path), clips


def segment_rows(manifest, clips):
    """The bag's rows next to the segments [i * L, (i + 1) * L) aggregated one by one."""
    bag = load_video_bag(manifest, "a", FusionMode.GLOBAL_ONLY)
    per = manifest.segment_length // CLIP_FRAMES
    expected = [
        aggregate_segment(clips[i * per:(i + 1) * per])
        for i in range(manifest.record("a").num_segments)
    ]
    return bag, np.array(expected).reshape(-1, clips.shape[1])


class TestPlanSegments:
    """floor(T / L) contiguous segments, read from VideoRecord.num_segments."""

    def test_exact_division(self, tmp_path):
        manifest, clips = one_video(tmp_path, 3, 16)  # 48 frames
        assert manifest.record("a").num_segments == 3
        rows, expected = segment_rows(manifest, clips)
        assert rows.shape == (3, 4)
        assert np.array_equal(rows, expected)

    def test_floor_drops_tail(self, tmp_path):
        manifest, clips = one_video(tmp_path, 7, 32)  # 112 frames, 16 dropped
        assert manifest.record("a").num_segments == 3
        rows, expected = segment_rows(manifest, clips)
        assert np.array_equal(rows, expected)
        # the last segment covers frames [64, 96): clips 4 and 5, not 6
        assert np.array_equal(rows[-1], aggregate_segment(clips[4:6]))

    def test_too_short_video(self, tmp_path):
        manifest, _ = one_video(tmp_path, 1, 32)  # 16 frames
        assert manifest.record("a").num_segments == 0
        with pytest.raises(EmptyVideo):
            load_video_bag(manifest, "a", FusionMode.GLOBAL_ONLY)

    def test_single_segment_boundary(self, tmp_path):
        manifest, clips = one_video(tmp_path, 2, 32)  # T == L
        assert manifest.record("a").num_segments == 1
        rows, expected = segment_rows(manifest, clips)
        assert rows.shape == (1, 4)
        assert np.array_equal(rows, expected)

    def test_invalid_segment_length(self, tmp_path):
        for segment_length in (0, -16):
            with pytest.raises(ManifestSyntax, match="segment_length"):
                one_video(tmp_path, 3, segment_length)

    @settings(max_examples=40, deadline=None)
    @given(
        segment_length=st.sampled_from([16, 32, 48, 64]),
        segments=st.integers(0, 5),
        tail=st.integers(0, 3),
    )
    @example(segment_length=32, segments=0, tail=1)  # shorter than a segment
    def test_coverage_property(self, segment_length, segments, tail):
        clips_per_segment = segment_length // CLIP_FRAMES
        clip_count = segments * clips_per_segment + tail % clips_per_segment
        with tempfile.TemporaryDirectory() as root:
            manifest, clips = one_video(Path(root), clip_count, segment_length)
            rec = manifest.record("a")
            assert rec.clip_count == clip_count
            assert rec.num_segments == clip_count * CLIP_FRAMES // segment_length
            assert rec.num_segments == segments
            if segments:
                # contiguous, non-overlapping, each exactly L frames, from frame 0
                rows, expected = segment_rows(manifest, clips)
                assert rows.shape == (segments, 4)
                assert np.array_equal(rows, expected)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_zero_vector_unchanged(self):
        out = l2_normalize([0.0, 0.0, 0.0])
        assert np.array_equal(out, np.zeros(3))

    def test_already_unit(self):
        assert np.array_equal(l2_normalize([1.0, 0.0]), [1.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            l2_normalize([1.0, bad])

    @pytest.mark.parametrize("values", [
        [7.214622077101734e-162], [1e-170, -1e-170], [5e-324, 5e-324, 0.0],
    ])
    def test_tiny_vector_has_unit_norm(self, values):
        # these squares are subnormal or zero in float64
        out = l2_normalize(values)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert np.array_equal(np.sign(out), np.sign(values))

    @given(st.lists(finite_floats, min_size=1, max_size=32))
    def test_norm_is_zero_or_one(self, values):
        out = l2_normalize(values)
        norm = np.linalg.norm(out)
        assert abs(norm) < 1e-12 or abs(norm - 1.0) < 1e-12


def _oracle_aggregate(clips):
    """Scalar-loop reference: normalize each clip, then element-wise mean."""
    dim = len(clips[0])
    normalized = []
    for clip in clips:
        norm = math.sqrt(sum(x * x for x in clip))
        normalized.append([x / norm if norm else x for x in clip])
    return [sum(c[i] for c in normalized) / len(clips) for i in range(dim)]


class TestAggregateSegment:
    def test_single_clip_is_its_normalization(self):
        np.testing.assert_allclose(aggregate_segment([[2.0, 0.0]]), [1.0, 0.0])

    def test_mean_of_unit_axes(self):
        out = aggregate_segment([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(11)
        clips = [rng.standard_normal(8).tolist() for _ in range(3)]
        expected = _oracle_aggregate(clips)
        np.testing.assert_allclose(aggregate_segment(clips), expected, atol=1e-12)

    def test_empty_segment(self):
        with pytest.raises(EmptySegment):
            aggregate_segment([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            aggregate_segment([[1.0, 2.0], [1.0, 2.0, 3.0]])

    @given(
        st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4),
            min_size=2,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, clips, rand):
        shuffled = list(clips)
        rand.shuffle(shuffled)
        a = aggregate_segment(clips)
        b = aggregate_segment(shuffled)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3),
        st.integers(1, 7),
    )
    def test_repeated_clip_equals_normalization(self, clip, k):
        out = aggregate_segment([clip] * k)
        np.testing.assert_allclose(out, l2_normalize(clip), atol=1e-12)
