import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptde.errors import MalformedPoseFile
from ptde.pose import (
    JOINT_COUNT,
    SEGMENT_FEATURE_DIM,
    parse_pose_document,
    pool_pose,
    pose_feature,
)


def person(x=10.0, y=20.0, conf=0.9):
    return [[x + j, y + j, conf] for j in range(JOINT_COUNT)]


def doc(frames):
    return json.dumps(frames)


def select(persons, width=320, height=240):
    """pose_feature of one frame holding the given (18, 3) persons."""
    frame = [np.asarray(p, dtype=np.float64).tolist() for p in persons]
    return pose_feature(parse_pose_document(doc([frame])), width, height)[0]


class TestParse:
    def test_two_frames_one_person_each(self):
        parsed = parse_pose_document(doc([[person()], [person()]]))
        assert len(parsed) == 2
        assert parsed.shape == (2, 1, JOINT_COUNT, 3)

    def test_empty_frame(self):
        parsed = parse_pose_document(doc([[person()], []]))
        # an empty slot: zero coordinates, confidence -inf
        assert np.array_equal(parsed[1, 0, :, :2], np.zeros((JOINT_COUNT, 2)))
        assert np.all(parsed[1, 0, :, 2] == -np.inf)

    def test_persons_fill_slots_in_order(self):
        parsed = parse_pose_document(
            doc([[person(1.0)], [person(2.0), person(3.0)], []])
        )
        assert parsed.shape == (3, 2, JOINT_COUNT, 3)
        assert parsed[1, 1, 0, 0] == 3.0
        assert np.all(parsed[0, 1, :, 2] == -np.inf)

    def test_empty_document(self):
        assert len(parse_pose_document("[]")) == 0

    def test_wrong_joint_count(self):
        with pytest.raises(MalformedPoseFile):
            parse_pose_document(doc([[person()[:17]]]))

    def test_bad_json(self):
        with pytest.raises(MalformedPoseFile):
            parse_pose_document("[[")

    def test_top_level_not_array(self):
        with pytest.raises(MalformedPoseFile):
            parse_pose_document('{"people": []}')

    def test_triple_too_short(self):
        bad = [[[1.0, 2.0]] * JOINT_COUNT]
        with pytest.raises(MalformedPoseFile):
            parse_pose_document(doc([bad]))

    def test_non_numeric_value(self):
        bad = person()
        bad[3][1] = "high"
        with pytest.raises(MalformedPoseFile):
            parse_pose_document(doc([[bad]]))

    def test_non_finite_value(self):
        # Python's json module happily parses NaN; the contract does not
        with pytest.raises(MalformedPoseFile):
            parse_pose_document("[[" + json.dumps(person()).replace("0.9", "NaN", 1) + "]]")

    def test_values_round_trip(self):
        parsed = parse_pose_document(doc([[person(160.0, 120.0, 0.5)]]))
        assert parsed[0, 0, 0].tolist() == [160.0, 120.0, 0.5]


class TestPoseFeature:
    def test_coordinate_scaling(self):
        joints = [[160.0, 120.0, 0.9]] * JOINT_COUNT
        np.testing.assert_allclose(select([joints])[0], [0.5, 0.5, 0.9])

    def test_no_person(self):
        frames = pose_feature(parse_pose_document(doc([[]])), 320, 240)
        assert frames.shape == (1, JOINT_COUNT, 3)
        assert np.array_equal(frames[0], np.zeros((JOINT_COUNT, 3)))

    def test_highest_mean_confidence_wins(self):
        rng = np.random.default_rng(5)
        low = rng.uniform(0, 300, (JOINT_COUNT, 3))
        low[:, 2] = rng.uniform(0.3, 0.5, JOINT_COUNT)
        high = rng.uniform(0, 300, (JOINT_COUNT, 3))
        high[:, 2] = rng.uniform(0.6, 0.8, JOINT_COUNT)
        # oracle: recompute both means the long way
        means = [sum(c[:, 2]) / JOINT_COUNT for c in (low, high)]
        assert means[1] > means[0]
        np.testing.assert_allclose(select([low, high])[:, 2], np.clip(high[:, 2], 0, 1))

    def test_tie_takes_lowest_index(self):
        a = np.full((JOINT_COUNT, 3), 0.5)
        b = np.full((JOINT_COUNT, 3), 0.5)
        b[:, 0] = 99.0
        np.testing.assert_allclose(select([a, b])[:, 0], 0.5 / 320)

    def test_bad_image_dims(self):
        with pytest.raises(ValueError):
            pose_feature(parse_pose_document(doc([[]])), 0, 240)

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=54, max_size=54
        )
    )
    def test_output_always_in_unit_box(self, values):
        joints = np.array(values).reshape(1, 1, JOINT_COUNT, 3)
        frame = pose_feature(joints, 320, 240)
        assert np.all(frame >= 0.0)
        assert np.all(frame <= 1.0)

    def test_deterministic(self):
        text = doc([[person(5.0, 7.0, 0.4), person(3.0, 2.0, 0.8)], []])
        a = pose_feature(parse_pose_document(text), 320, 240)
        b = pose_feature(parse_pose_document(text), 320, 240)
        assert a.tobytes() == b.tobytes()


def _flat(frame):
    return [float(v) for row in frame for v in row]


class TestPoolPose:
    def test_single_frame(self):
        frame = select([person()])
        np.testing.assert_allclose(pool_pose(frame[None], 1), [_flat(frame)])

    def test_zero_and_one_frames(self):
        frames = np.stack([np.zeros((JOINT_COUNT, 3)), np.ones((JOINT_COUNT, 3))])
        np.testing.assert_allclose(pool_pose(frames, 2), [np.full(54, 0.5)])

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(9)
        frames = rng.uniform(0, 1, (32, JOINT_COUNT, 3))
        expected = [
            [sum(_flat(f)[i] for f in frames[s : s + 16]) / 16 for i in range(54)]
            for s in (0, 16)
        ]
        np.testing.assert_allclose(pool_pose(frames, 16), expected, atol=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            pool_pose(np.zeros((0, JOINT_COUNT, 3)), 0)

    def test_frames_must_fill_segments(self):
        with pytest.raises(ValueError):
            pool_pose(np.zeros((5, JOINT_COUNT, 3)), 2)

    def test_permutation_invariant_and_idempotent(self):
        rng = np.random.default_rng(3)
        frames = rng.uniform(0, 1, (5, JOINT_COUNT, 3))
        fwd = pool_pose(frames, 5)
        rev = pool_pose(frames[::-1], 5)
        np.testing.assert_allclose(fwd, rev, atol=1e-12)
        constant = np.stack([frames[0]] * 4)
        np.testing.assert_allclose(pool_pose(constant, 4), [_flat(frames[0])], atol=1e-12)

    def test_output_dim(self):
        frames = pose_feature(parse_pose_document(doc([[person()]] * 3)), 320, 240)
        assert pool_pose(frames, 3).shape == (1, SEGMENT_FEATURE_DIM)
