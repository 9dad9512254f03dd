"""The ROC CSV and SVG writers at frame scale, against the per-value writers.

`write_roc_csv` and `write_roc_svg` format and write a curve in blocks of
`_ROC_CSV_BLOCK_ROWS` points; the SVG's coordinates are written from exact
integer hundredths. Their bytes must equal those of the writers in
`test_eval_equivalence`, which format one numpy scalar at a time, at every
block boundary, on coordinates that fall on half-hundredths, and with memory
that does not grow with the curve.
"""

import tracemalloc

import numpy as np
import pytest

from ptde.errors import LengthMismatch
from ptde.metrics import (
    _ROC_CSV_BLOCK_ROWS,
    RocCurve,
    _points_text,
    roc_curve,
    write_roc_csv,
    write_roc_svg,
)
from test_eval_equivalence import old_roc_csv, old_roc_svg

B = _ROC_CSV_BLOCK_ROWS


def curve_of(points: int, seed: int) -> RocCurve:
    """A curve of exactly `points` points: points - 1 distinct scores."""
    rng = np.random.default_rng(seed)
    scores = rng.permutation(points - 1) / points
    labels = (rng.random(points - 1) < 0.3).astype(np.int64)
    labels[:2] = (0, 1)
    curve = roc_curve(scores, labels)
    assert len(curve.fps) == points
    return curve


def assert_same_files(curve, tmp_path):
    write_roc_csv(curve, tmp_path / "roc.csv")
    write_roc_svg(curve, tmp_path / "roc.svg")
    assert (tmp_path / "roc.csv").read_bytes() == old_roc_csv(curve)
    assert (tmp_path / "roc.svg").read_bytes() == old_roc_svg(curve)


@pytest.mark.parametrize("points", [3, B - 1, B, B + 1, 2 * B, 10**5])
def test_block_boundaries(tmp_path, points):
    assert_same_files(curve_of(points, points), tmp_path)


def test_tied_scores_at_frame_scale(tmp_path):
    """10^5 segments on a 1/1024 score grid: long runs of equal counts
    that cross block boundaries."""
    rng = np.random.default_rng(3)
    scores = np.round(rng.random(10**5) * 1024) / 1024
    labels = (rng.random(10**5) < scores * 0.5 + 0.1).astype(np.int64)
    assert_same_files(roc_curve(scores, labels), tmp_path)


@pytest.mark.parametrize(
    "normal, theft",
    # power-of-two totals put coordinates on half-hundredths: 40 + 2/1024 *
    # 320 is 40.625; their neighbours put them next to half-hundredths
    [(1024, 256), (4096, 512), (1023, 255), (1025, 257), (3072, 384)],
)
def test_totals_that_hit_half_hundredths(tmp_path, normal, theft):
    rng = np.random.default_rng(normal)
    labels = rng.permutation(np.repeat([0, 1], [normal, theft]))
    curve = roc_curve(rng.permutation(labels.size), labels)
    if normal % 1024 == 0:
        coordinates = 40 + curve.fpr * 320
        assert np.any((coordinates * 1000) % 10 == 5)
    assert_same_files(curve, tmp_path)


def test_points_on_and_next_to_half_hundredths():
    """Every multiple of 1/8 below 1000, which `format` rounds half to even,
    and the floats on either side of it."""
    eighths = np.arange(8 * 1000 - 1) / 8
    for values in (eighths, np.nextafter(eighths, 0), np.nextafter(eighths, 1000)):
        xy = values[: values.size // 2 * 2].reshape(-1, 2)
        expected = "".join(map("{:.2f},{:.2f} ".format, *xy.T.tolist()))
        assert _points_text(xy) == expected.encode("ascii")


@pytest.mark.parametrize(
    "values",
    [
        [999.995, 0.0],  # rounds to 1000.00
        [1000.0, 5.0],
        [-0.001, 5.0],  # rounds to -0.00
        [-0.0, 1.0],
        [np.nan, 1.0],
        [np.inf, -np.inf],
        [1e300, 5e-324],
    ],
)
def test_values_no_curve_gives_keep_format(values):
    xy = np.array([values, [40.625, 359.375]])
    expected = "".join(map("{:.2f},{:.2f} ".format, *xy.T.tolist()))
    assert _points_text(xy) == expected.encode("ascii")


def test_hand_built_curve_with_signed_zero_counts(tmp_path):
    curve = RocCurve(
        thresholds=np.array([np.inf, 0.5, 0.25, 0.0]),
        tps=np.array([-0.0, 0.0, 1.0, 2.0]),
        fps=np.array([0.0, -0.0, -0.0, 2.0]),
    )
    assert_same_files(curve, tmp_path)


# The writers before blocks held a string per point for the whole curve:
# each traced about 13 MiB on this curve.
PEAK_CEILING = 4 * 2**20


@pytest.mark.parametrize("writer", [write_roc_csv, write_roc_svg])
def test_traced_peak_does_not_grow_with_the_curve(tmp_path, writer):
    curve = curve_of(10**5, 5)
    tracemalloc.start()
    try:
        writer(curve, tmp_path / "roc.out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CEILING


@pytest.mark.parametrize(
    "thresholds, tps, fps",
    [
        ([np.inf, 0.5, 0.1], [0, 1, 2], [0, 1]),
        ([np.inf, 0.5], [0, 1, 2], [0, 1, 2]),
        ([np.inf, 0.5], [0, 1], [0, 1, 2]),
        ([], [], []),
        ([[np.inf, 0.5]], [[0, 1]], [[0, 1]]),
        (np.inf, 1, 1),
    ],
)
def test_curve_arrays_must_be_1d_of_one_length(tmp_path, thresholds, tps, fps):
    path = tmp_path / "roc.csv"
    with pytest.raises(LengthMismatch):
        write_roc_csv(
            RocCurve(np.array(thresholds), np.array(tps), np.array(fps)), path
        )
    assert list(tmp_path.iterdir()) == []
