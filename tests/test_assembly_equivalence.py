"""The whole-video assembly stages against the per-segment path they replace.

The oracle below is the earlier implementation, kept here verbatim in
substance: it parses a pose document one value at a time, selects and
normalizes one frame at a time, and aggregates, pools and fuses one segment
at a time. A second oracle is the json path that the byte-level pose parser
replaced: `json.loads`, a character check and one `np.array` call. Every
comparison is bit for bit.
"""

import json
import re
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptde.data import CLIP_FRAMES, load_manifest, load_video_bag, write_feature_file
from ptde.errors import MalformedPoseFile
from ptde.fusion import FusionMode
from ptde.pose import _first_fault, parse_pose_document, pool_pose, pose_feature
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


# The characters a valid document can hold; anything else is a string, bool,
# null, object or non-finite constant.
_NUMERIC_DOCUMENT = re.compile(r"[\[\],0-9eE.+\- \t\n\r]*")


def json_path_parse(doc):
    """The json path: json.loads, then one np.array call over all persons; a
    rejected document is walked by `_first_fault` for its message."""
    try:
        frames = json.loads(doc)
    except (ValueError, RecursionError) as exc:
        raise MalformedPoseFile(f"invalid JSON: {exc}") from exc
    if not isinstance(frames, list):
        raise MalformedPoseFile("top level must be an array of frames")
    parsed = _keypoint_arrays(doc, frames)
    if parsed is None:
        raise MalformedPoseFile(_first_fault(frames))
    counts, joints = parsed
    candidates = np.zeros((len(frames), max(1, counts.max(initial=0)), JOINTS, 3))
    candidates[..., 2] = -np.inf
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(joints)) - np.repeat(starts, counts)
    candidates[np.repeat(np.arange(len(frames)), counts), slot] = joints
    return candidates


def _keypoint_arrays(doc, frames):
    if not _NUMERIC_DOCUMENT.fullmatch(doc):
        return None
    try:
        counts = np.fromiter(map(len, frames), dtype=np.intp, count=len(frames))
        persons = list(chain.from_iterable(frames))
        joints = np.array(persons, dtype=np.float64) if persons else np.empty((0, JOINTS, 3))
    except (TypeError, ValueError, OverflowError):  # ragged, or beyond float64
        return None
    if joints.shape[1:] != (JOINTS, 3):
        return None
    return (counts, joints) if np.all(np.isfinite(joints)) else None


def outcome(parse, doc):
    """("ok", array bytes) or ("error", message) of one parse."""
    try:
        return "ok", parse(doc).tobytes()
    except MalformedPoseFile as exc:
        return "error", str(exc)


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


def random_document(rng, counts, ties, width=320, height=240, compact=False):
    """Frames with the given person counts: out-of-frame coordinates, a mix
    of JSON integers and floats, -0.0, and (with `ties`) persons sharing a
    confidence profile so that their means tie exactly. `compact` drops the
    spaces of json.dumps' default ", " separators."""
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
    return json.dumps(frames, separators=(",", ":") if compact else None)


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
    doc = random_document(
        np.random.default_rng(seed), counts, ties, width, height, data.draw(st.booleans())
    )

    candidates = parse_pose_document(doc)
    assert len(candidates) == len(counts)
    assert candidates.tobytes() == json_path_parse(doc).tobytes()
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
    doc = random_document(rng, counts, ties, compact=data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_video(Path(tmp), clips, doc, length, 320, 240)
        for mode in FusionMode:
            got = load_video_bag(manifest, "v", mode)
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
# "huge integer" and "digit limit" documents made the per-value oracle raise
# OverflowError / ValueError instead
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
    # number forms that float() accepts and JSON does not
    "leading zero": (_literal("01"), None),
    "negative leading zero": (_literal("-01"), None),
    "trailing point": (_literal("1."), None),
    "no integer part": (_literal(".5"), None),
    "negative, no integer part": (_literal("-.5"), None),
    "plus sign": (_literal("+1"), None),
    "point before exponent": (_literal("1.e5"), None),
    "value split by a space": (_literal("1 2"), None),
    "empty element": (_literal("1,"), None),
    "trailing comma in a triple": (json.dumps([[_good_person()]]).replace("0.5]", "0.5,]", 1), None),
    "trailing comma in the document": (json.dumps([[_good_person()]])[:-1] + ",]", None),
    "double minus": (_literal("--1"), None),
    "two points": (_literal("1.2.3"), None),
    "two exponents": (_literal("1e2e3"), None),
    # with its numbers deleted, each of these reads as an empty array
    "number as the only frame": ("[5]", None),
    "number as the only person": ("[[], [-0.5]]", None),
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


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejections_match_json_path(name):
    doc = REJECTIONS[name][0]
    expected = outcome(json_path_parse, doc)
    assert expected[0] == "error"
    assert outcome(parse_pose_document, doc) == expected


def _person_with(values):
    """One frame, one person, with `values` (texts) as its first values."""
    person = [["1", "2", "0.5"] for _ in range(JOINTS)]
    flat = [v for triple in person for v in triple]
    flat[: len(values)] = values
    triples = (",".join(flat[i : i + 3]) for i in range(0, len(flat), 3))
    return "[[[" + ",".join(f"[{t}]" for t in triples) + "]]]"


# name -> (document, the first values it must give, or None)
ACCEPTANCES = {
    "integer -0 is +0.0": (_person_with(["-0"]), [0.0]),
    "-0.0 keeps its sign": (_person_with(["-0.0", "-0e0"]), [-0.0, -0.0]),
    "exponent forms": (_person_with(["1E+05", "1e-400", "1e308", "2.5E-3"]), [1e5, 0.0, 1e308, 2.5e-3]),
    "integers past 2**53": (_person_with([str(2**53 + 1), str(2**64), str(-(2**63))]), None),
    "16 and 17 digits": (_person_with(["0.1000000000000001", "123.45678901234567", "-9007199254740993.5"]), None),
    "18 and 19 digits": (_person_with(["123456789012345678", "1.234567890123456789", "0.000000000000000001"]), None),
    "a midpoint between doubles": (_person_with(["4503599627370496.5", "4503599627370497.5"]), None),
    "tabs and newlines": ("\t[\n[ [[1 ,\t2,3]" + ",[1,2,3]" * 17 + "]\r\n]\n, [ ] ]\n", None),
    "empty frames": ("[[],[],[]]", None),
    "empty document": (" [ ] ", None),
    "0 to 3 persons per frame": (
        json.dumps([[], [_good_person()], [_good_person(1), _good_person(2)],
                    [_good_person(3), _good_person(4), _good_person(5)]]),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(ACCEPTANCES))
def test_acceptances_match_json_path(name):
    doc, first_values = ACCEPTANCES[name]
    got = parse_pose_document(doc)
    assert got.tobytes() == json_path_parse(doc).tobytes()
    if first_values is not None:
        expected = np.array(first_values)
        assert got.reshape(-1)[: len(expected)].tobytes() == expected.tobytes()


MUTATION_BYTES = "[],0123456789eE.+- \t\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_one_byte_mutations_match_json_path(seed, compact, data):
    counts = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    doc = random_document(np.random.default_rng(seed), counts, False, compact=compact)
    at = data.draw(st.integers(0, len(doc)))
    byte = data.draw(st.sampled_from(MUTATION_BYTES))
    mutated = data.draw(st.sampled_from([
        doc[:at] + byte + doc[at + 1 :],  # replace
        doc[:at] + byte + doc[at:],  # insert
        doc[:at] + doc[at + 1 :],  # delete
    ]))
    assert outcome(parse_pose_document, mutated) == outcome(json_path_parse, mutated)


def _decimal(digits, point, negative):
    text = str(digits)
    if point:
        text = text.rjust(point + 1, "0")
        text = text[:-point] + "." + text[-point:]
    return "-" + text if negative else text


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(
        # any mantissa of up to 20 digits, its point anywhere
        st.tuples(st.integers(0, 10**20), st.integers(0, 20), st.booleans()),
        # midpoints between doubles near 2**52..2**56 and their neighbours
        st.tuples(
            st.integers(2**52, 2**53 - 1).map(lambda m: 10 * m + 5),
            st.just(1),
            st.booleans(),
        ),
        st.tuples(
            st.integers(2**53, 2**56).map(lambda m: 2 * m + 1),
            st.integers(0, 2),
            st.booleans(),
        ),
    ),
    min_size=1, max_size=JOINTS * 3,
))
def test_number_conversion_matches_json_path(numbers):
    doc = _person_with([_decimal(*n) for n in numbers])
    assert outcome(parse_pose_document, doc) == outcome(json_path_parse, doc)


def test_json_loads_runs_only_on_rejection(monkeypatch):
    doc = random_document(np.random.default_rng(0), [1, 0, 2], True)
    expected = json_path_parse(doc)

    def refuse(_):
        raise AssertionError("json.loads on an accepted document")

    monkeypatch.setattr("ptde.pose.json.loads", refuse)
    assert parse_pose_document(doc).tobytes() == expected.tobytes()
    with pytest.raises(AssertionError):
        parse_pose_document(doc[:-1])
