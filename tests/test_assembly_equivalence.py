"""The whole-video assembly stages against the per-segment path they replace.

The oracle below is the earlier implementation, kept here verbatim in
substance: it parses a pose document one value at a time, selects and
normalizes one frame at a time, and aggregates, pools and fuses one segment
at a time. Every comparison is bit for bit.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptde.data import CLIP_FRAMES, load_manifest, load_video_bag, write_feature_file
from ptde.errors import MalformedPoseFile
from ptde.fusion import FusionMode
from ptde.pose import parse_pose_document, pool_pose, pose_feature
from ptde.segmenting import aggregate_segment, l2_normalize

JOINTS = 18


# ------------------------------------------------------------------ oracle

def oracle_parse(doc):
    frames = json.loads(doc)
    if not isinstance(frames, list):
        raise MalformedPoseFile("top level must be an array of frames")
    parsed = []
    for f_idx, frame in enumerate(frames):
        if not isinstance(frame, list):
            raise MalformedPoseFile(f"frame {f_idx} is not an array of persons")
        parsed.append(
            [oracle_person(person, f_idx, p_idx) for p_idx, person in enumerate(frame)]
        )
    return parsed


def oracle_person(person, f_idx, p_idx):
    if not isinstance(person, list) or len(person) != JOINTS:
        got = len(person) if isinstance(person, list) else type(person).__name__
        raise MalformedPoseFile(
            f"frame {f_idx} person {p_idx}: expected {JOINTS} joints, got {got}"
        )
    joints = np.empty((JOINTS, 3))
    for j_idx, triple in enumerate(person):
        if not isinstance(triple, list) or len(triple) != 3:
            raise MalformedPoseFile(
                f"frame {f_idx} person {p_idx} joint {j_idx}: "
                f"expected [x, y, confidence]"
            )
        for v_idx, value in enumerate(triple):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MalformedPoseFile(
                    f"frame {f_idx} person {p_idx} joint {j_idx}: "
                    f"non-numeric value {value!r}"
                )
            joints[j_idx, v_idx] = float(value)
    if not np.all(np.isfinite(joints)):
        raise MalformedPoseFile(
            f"frame {f_idx} person {p_idx}: non-finite keypoint value"
        )
    return joints


def oracle_select(frame_candidates, width, height):
    if not frame_candidates:
        return np.zeros((JOINTS, 3))
    mean_conf = [float(np.mean(np.asarray(c)[:, 2])) for c in frame_candidates]
    best = int(np.argmax(mean_conf))
    joints = np.asarray(frame_candidates[best], dtype=np.float64).copy()
    joints[:, 0] /= width
    joints[:, 1] /= height
    np.clip(joints, 0.0, 1.0, out=joints)
    return joints


def oracle_pool(frames):
    return np.stack([f.reshape(JOINTS * 3) for f in frames]).mean(axis=0)


def oracle_normalize(v):
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return v.copy()
    return v / norm


def oracle_aggregate(clips):
    return np.mean([oracle_normalize(c) for c in clips], axis=0)


def oracle_pose_segments(doc, segments, segment_length, width, height):
    frames = oracle_parse(doc)
    return [
        oracle_pool(
            [oracle_select(frames[i], width, height) for i in range(s * segment_length, (s + 1) * segment_length)]
        )
        for s in range(segments)
    ]


def oracle_bag(manifest, video_id, mode):
    rec = manifest.record(video_id)
    clips = np.frombuffer(
        rec.feature_path.read_bytes(), dtype="<f4", offset=16
    ).reshape(rec.clip_count, -1).astype(np.float64)
    per_segment = manifest.segment_length // CLIP_FRAMES
    segments = rec.clip_count // per_segment
    rows = []
    poses = None
    if mode is FusionMode.GLOBAL_LOCAL_CONCAT:
        poses = oracle_pose_segments(
            rec.pose_path.read_text(encoding="utf-8"), segments,
            manifest.segment_length, manifest.image_width, manifest.image_height,
        )
    for s in range(segments):
        app = oracle_aggregate(clips[s * per_segment : (s + 1) * per_segment])
        rows.append(app.copy() if poses is None else np.concatenate([app, poses[s]]))
    return np.stack(rows)


# -------------------------------------------------------------- generators

CONFIDENCE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, -0.25)


def random_document(rng, counts, ties, width=320, height=240):
    """Frames with the given person counts: out-of-frame coordinates, a mix
    of JSON integers and floats, -0.0, and (with `ties`) persons sharing a
    confidence profile so that their means tie exactly."""
    frames = []
    for count in counts:
        frame = []
        conf = None
        for _ in range(count):
            xy = rng.uniform(-0.5, 1.5, (JOINTS, 2)) * (width, height)
            if conf is None or not ties:
                conf = rng.choice(CONFIDENCE_GRID, JOINTS)
            as_int = rng.random((JOINTS, 3)) < 0.3
            person = []
            for j in range(JOINTS):
                triple = [xy[j, 0], xy[j, 1], conf[j]]
                person.append(
                    [int(round(v)) if as_int[j, k] else float(v) for k, v in enumerate(triple)]
                )
            if rng.random() < 0.2:
                person[0][0] = -0.0
            frame.append(person)
        frames.append(frame)
    return json.dumps(frames)


def write_video(root, clips, doc, segment_length, width, height):
    write_feature_file(root / "v.ptdf", clips)
    (root / "v.json").write_text(doc, encoding="utf-8")
    manifest = {
        "name": "equivalence",
        "feature_dim": clips.shape[1],
        "clip_length": CLIP_FRAMES,
        "segment_length": segment_length,
        "image_width": width,
        "image_height": height,
        "videos": [{
            "id": "v", "split": "train", "category": "PackageTheft",
            "feature_file": "v.ptdf", "pose_file": "v.json",
        }],
    }
    (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return load_manifest(root / "manifest.json")


def random_clips(rng, count, dim, zero_rows):
    clips = rng.standard_normal((count, dim)).astype(np.float32)
    clips[rng.random(count) < zero_rows] = 0.0
    return clips


# ------------------------------------------------------------------- tests

@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.data(),
)
def test_pose_stages_match_per_frame_path(clips_per_segment, segments, seed, ties, data):
    length = clips_per_segment * CLIP_FRAMES
    extra = data.draw(st.integers(0, 20))
    counts = data.draw(st.lists(
        st.integers(0, 3), min_size=segments * length + extra,
        max_size=segments * length + extra,
    ))
    width, height = data.draw(st.sampled_from([(320, 240), (7, 3), (1920, 1080)]))
    doc = random_document(np.random.default_rng(seed), counts, ties, width, height)

    candidates = parse_pose_document(doc)
    assert len(candidates) == len(counts)
    got = pool_pose(
        pose_feature(candidates[: segments * length], width, height), length
    )
    expected = oracle_pose_segments(doc, segments, length, width, height)
    assert got.tobytes() == np.stack(expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 40),
    st.sampled_from([1, 3, 64, 118]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_clip_aggregation_matches_per_segment_path(k, segments, dim, seed, zero_rows):
    clips = random_clips(np.random.default_rng(seed), segments * k, dim, zero_rows)
    clips = clips.astype(np.float64).reshape(segments, k, dim)
    got = aggregate_segment(clips)
    expected = np.stack([oracle_aggregate(segment) for segment in clips])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [64, 118, 4096])
def test_row_norms_match_per_vector_norm(dim):
    rows = np.random.default_rng(dim).standard_normal((500, dim)).astype(np.float32)
    rows = rows.astype(np.float64)
    expected = np.stack([oracle_normalize(r) for r in rows])
    assert l2_normalize(rows).tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.data(),
)
def test_load_video_bag_matches_per_segment_path(clips_per_segment, seed, ties, data):
    rng = np.random.default_rng(seed)
    length = clips_per_segment * CLIP_FRAMES
    clip_count = data.draw(st.integers(clips_per_segment, 4 * clips_per_segment + 2))
    frames = clip_count * CLIP_FRAMES
    counts = data.draw(st.lists(st.integers(0, 3), min_size=frames, max_size=frames))
    clips = random_clips(rng, clip_count, data.draw(st.sampled_from([2, 5, 64])), 0.25)
    doc = random_document(rng, counts, ties)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_video(Path(tmp), clips, doc, length, 320, 240)
        for mode in FusionMode:
            got = load_video_bag(manifest, "v", mode).embeddings
            assert got.tobytes() == oracle_bag(manifest, "v", mode).tobytes()


def _good_person(x=10):
    return [[x + j, 20 + j, 0.5] for j in range(JOINTS)]


def _document_with(fault):
    """Frame 0 is clean; frame 1 holds a clean person, then one with `fault`
    applied, then another clean person."""
    bad = _good_person()
    fault(bad)
    return json.dumps([[_good_person()], [_good_person(), bad, _good_person()]])


def _set(j, v, value):
    def apply(person):
        person[j][v] = value
    return apply


def _literal(text):
    """A fault that writes `text` verbatim as joint 7's x value."""
    return _document_with(_set(7, 0, 1234.5)).replace("1234.5", text)


# name -> (document, expected message). None means the oracle's message; the
# last two documents made the oracle raise OverflowError / ValueError instead
REJECTIONS = {
    "bool": (_document_with(_set(7, 2, True)), None),
    "numeric string": (_document_with(_set(7, 0, "12")), None),
    "null": (_document_with(_set(7, 1, None)), None),
    "17 joints": (_document_with(lambda p: p.pop()), None),
    "two-value triple": (_document_with(lambda p: p[7].pop()), None),
    "joint not a list": (_document_with(lambda p: p.__setitem__(7, 4.0)), None),
    "person not a list": (json.dumps([[_good_person()], [_good_person(), 3]]), None),
    "frame not a list": (json.dumps([[_good_person()], {"persons": []}]), None),
    "frame a number": (json.dumps([[_good_person()], 5]), None),
    "NaN": (_document_with(_set(7, 2, float("nan"))), None),
    "Infinity": (_document_with(_set(7, 0, float("-inf"))), None),
    "float overflow": (_literal("1e999"), None),
    "non-numeric after non-finite": (
        _document_with(lambda p: (_set(3, 2, float("nan"))(p), _set(9, 0, "x")(p))),
        None,
    ),
    "bad syntax": ("[[", None),
    "top level object": ('{"frames": []}', None),
    "huge integer": (_literal("1" + "0" * 400), "frame 1 person 1: non-finite keypoint value"),
    "digit limit": (_literal("9" * 5000), "invalid JSON"),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejections_match_per_value_parser(name):
    doc, expected = REJECTIONS[name]
    if expected is None:  # the oracle rejects it too; messages must agree
        with pytest.raises((MalformedPoseFile, json.JSONDecodeError)) as oracle:
            oracle_parse(doc)
        expected = str(oracle.value)
    with pytest.raises(MalformedPoseFile) as info:
        parse_pose_document(doc)
    assert expected in str(info.value)
