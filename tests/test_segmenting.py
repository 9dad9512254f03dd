import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptde.errors import DimensionMismatch, EmptySegment, EmptyVideo, NonFiniteInput
from ptde.segmenting import aggregate_segment, l2_normalize, plan_segments

finite_floats = st.floats(
    min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False
)


class TestPlanSegments:
    def test_exact_division(self):
        plan = plan_segments(48, 16)
        assert plan.segments == ((0, 16), (16, 32), (32, 48))
        assert plan.dropped_tail == 0

    def test_floor_drops_tail(self):
        plan = plan_segments(50, 16)
        assert plan.num_segments == 3
        assert plan.dropped_tail == 2
        assert plan.segments[-1] == (32, 48)

    def test_too_short_video(self):
        with pytest.raises(EmptyVideo):
            plan_segments(10, 16)

    def test_single_segment_boundary(self):
        plan = plan_segments(16, 16)
        assert plan.segments == ((0, 16),)

    def test_invalid_segment_length(self):
        with pytest.raises(ValueError):
            plan_segments(10, 0)

    @given(st.integers(1, 10_000), st.data())
    def test_coverage_property(self, total, data):
        length = data.draw(st.integers(1, total))
        plan = plan_segments(total, length)
        assert plan.num_segments == total // length
        assert plan.dropped_tail == total % length
        # contiguous, non-overlapping, each exactly L frames, starting at 0
        expected_start = 0
        for start, end in plan.segments:
            assert start == expected_start
            assert end - start == length
            expected_start = end
        assert expected_start == (total // length) * length


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
