import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptde.errors import DimensionMismatch, MissingPose
from ptde.fusion import FusionMode, fuse


class TestFuse:
    def test_global_only_identity(self):
        appearance = np.random.default_rng(0).standard_normal(4096)
        out = fuse(appearance, None, FusionMode.GLOBAL_ONLY)
        assert out.shape == (4096,)
        assert np.array_equal(out, appearance)

    def test_concat_dimensions(self):
        appearance = np.random.default_rng(1).standard_normal(4096)
        pose = np.random.default_rng(2).uniform(0, 1, 54)
        out = fuse(appearance, pose, FusionMode.GLOBAL_LOCAL_CONCAT)
        assert out.shape == (4150,)
        assert np.array_equal(out[:4096], appearance)
        assert np.array_equal(out[4096:], pose)

    def test_positional_oracle(self):
        appearance = np.array([1.0, 2.0])
        pose = np.arange(54, dtype=np.float64) / 54
        out = fuse(appearance, pose, FusionMode.GLOBAL_LOCAL_CONCAT)
        for i in range(2):
            assert out[i] == appearance[i]
        for i in range(54):
            assert out[2 + i] == pose[i]

    def test_scalar_appearance(self):
        with pytest.raises(DimensionMismatch, match="must be a vector, got a scalar"):
            fuse(np.float64(1.0), None, FusionMode.GLOBAL_ONLY)

    def test_missing_pose(self):
        with pytest.raises(MissingPose):
            fuse(np.zeros(8), None, FusionMode.GLOBAL_LOCAL_CONCAT)

    def test_pose_in_global_mode_rejected(self):
        with pytest.raises(ValueError):
            fuse(np.zeros(8), np.zeros(54), FusionMode.GLOBAL_ONLY)

    def test_bad_pose_dim(self):
        with pytest.raises(DimensionMismatch):
            fuse(np.zeros(8), np.zeros(53), FusionMode.GLOBAL_LOCAL_CONCAT)

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=54, max_size=54),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=54, max_size=54),
    )
    def test_injective_per_mode(self, a1, a2, p1, p2):
        out1 = fuse(np.array(a1), np.array(p1), FusionMode.GLOBAL_LOCAL_CONCAT)
        out2 = fuse(np.array(a2), np.array(p2), FusionMode.GLOBAL_LOCAL_CONCAT)
        if a1 != a2 or p1 != p2:
            assert not np.array_equal(out1, out2)
        else:
            assert np.array_equal(out1, out2)


class TestFusedDim:
    @pytest.mark.parametrize(
        "dim,mode,expected",
        [
            (4096, FusionMode.GLOBAL_ONLY, 4096),
            (4096, FusionMode.GLOBAL_LOCAL_CONCAT, 4150),
            (64, FusionMode.GLOBAL_LOCAL_CONCAT, 118),
        ],
    )
    def test_dim_is_function_of_mode(self, dim, mode, expected):
        pose = np.zeros((3, 54)) if mode is FusionMode.GLOBAL_LOCAL_CONCAT else None
        assert fuse(np.zeros((3, dim)), pose, mode).shape == (3, expected)
