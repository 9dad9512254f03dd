"""`_repr_fields` against `repr`, byte for byte.

The ROC CSV writes each float as `repr` of a Python float, the shortest
text that reads back to the same float64 (the nearest such text where two
have that length). `_repr_fields` formats a whole block with array
operations and falls back to `repr` for each value it cannot decide. Every
row must read back as `repr` once its 0 bytes are deleted, and must leave
its last byte free for a separator. The CSV of hand-built curves with
values no `roc_curve` gives must equal the per-value writer's.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ptde.metrics import (
    _ROC_CSV_BLOCK_ROWS,
    RocCurve,
    _repr_fields,
    _shortest_digits,
    write_roc_csv,
)
from test_eval_equivalence import old_roc_csv


def assert_repr_bytes(values: np.ndarray):
    fields = _repr_fields(values)
    assert not fields[:, -1].any()
    fields[:, -1] = ord("\n")
    expected = "".join(repr(x) + "\n" for x in values.tolist()).encode("ascii")
    got = fields.tobytes().translate(None, b"\0")
    if got != expected:
        pairs = zip(got.decode().splitlines(), expected.decode().splitlines())
        wrong = [(g, e) for g, e in pairs if g != e]
        pytest.fail(f"{len(wrong)} of {values.size} differ from repr, first {wrong[:5]}")


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@given(st.floats())
@example(1e-07)
@example(1e-21)
@example(1e-29)
@example(0.1)
@example(1e16)
@example(9999999999999998.0)
@example(0.30000000000000004)
@example(math.nextafter(0.3, 0))
@example(math.nextafter(0.1, 1))
@example(math.nextafter(1e-07, 0))
@example(math.nextafter(1e-21, 1))
@example(2.0**-1)
@example(2.0**-20)
@example(2.0**-1022)
@example(2.0**-1074)
@example(803152091755965.25)  # a tie between two 16-digit texts
def test_any_float(x):
    assert_repr_bytes(np.array([x]))


@given(st.integers(0, 2**64 - 1).map(bits_to_float))
def test_any_bit_pattern(x):
    assert_repr_bytes(np.array([x]))


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_blocks_that_mix_fast_and_fallback_values(xs):
    assert_repr_bytes(np.array(xs))


@given(st.lists(st.floats(width=32), min_size=1, max_size=16))
def test_float32_values_read_as_their_float64(xs):
    values = np.array(xs, dtype=np.float32)
    fields = _repr_fields(values)
    expected = [repr(x) for x in values.tolist()]
    assert [row.tobytes().translate(None, b"\0").decode() for row in fields] == expected


@pytest.mark.parametrize(
    "values",
    [
        np.array([3, -1, 10**18]),
        np.array([True, False]),
        np.array([2**70, 0.5, "x"], dtype=object),
    ],
)
def test_other_dtypes_keep_repr_of_their_scalars(values):
    fields = _repr_fields(values)
    assert not fields[:, -1].any()
    texts = [row.tobytes().translate(None, b"\0").decode() for row in fields]
    assert texts == [repr(x) for x in values.tolist()]


def _families():
    rng = np.random.default_rng(25)
    size = 2 * 10**5
    rate_totals = [3, 7, 10, 12, 100, 999, 1000, 1024, 4096, 9973, 10**4, 65536, 10**5]
    decimals = np.concatenate(
        [np.arange(1, 10**4) / 10.0**j for j in range(1, 8)]
    )
    tens = np.array([10.0**k for k in range(-323, 309)])
    twos = np.array([2.0**k for k in range(-1074, 1024)])
    return {
        "uniform": rng.random(size),
        "sigmoid": 1 / (1 + np.exp(-rng.normal(0, 4, size))),
        "rates": np.concatenate(
            [np.arange(t + 1) / t for t in rate_totals]
            + [np.arange(10**6 - 10**4, 10**6 + 1) / 10**6, np.arange(10**4) / 10**6]
        ),
        "log_uniform": 10 ** rng.uniform(-30, 17, size),
        "decimal_neighbours": np.concatenate(
            [np.nextafter(decimals, 0), decimals, np.nextafter(decimals, 1)]
        ),
        "powers": np.concatenate(
            [tens, twos, *(np.nextafter(p, d) for p in (tens, twos) for d in (0, np.inf))]
        ),
    }


FAMILIES = _families()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_seeded_sweep(family):
    values = FAMILIES[family]
    assert_repr_bytes(values)
    assert_repr_bytes(-values)


@pytest.mark.parametrize("family", ["sigmoid", "rates"])
def test_fallback_is_rare_on_curve_values(family):
    """At most 1% of 10^5 sigmoid scores or count/total rates are formatted
    by `repr` one by one."""
    rng = np.random.default_rng(7)
    if family == "sigmoid":
        values = 1 / (1 + np.exp(-rng.normal(0, 3, 10**5)))
    else:
        values = rng.permutation(10**5 + 1) / 10**5
    exact = _shortest_digits(values)[2]
    assert np.mean(~exact) <= 0.01


# The CSV on hand-built curves, against the per-value writer


@pytest.mark.parametrize(
    "thresholds",
    [
        [np.inf, 3.5, 1.0, 0.75, 0.0, -0.0, -0.25, -7.0, -np.inf],
        [np.nan, np.nan, 1e300, 5e-324, 2.2250738585072014e-308, -5e-324, -0.0, 1e-30, 1e16],
    ],
)
def test_hand_built_thresholds(tmp_path, thresholds):
    """Thresholds at or above 1, negative, signed zeros, subnormals, NaN
    and infinities, which `repr` formats one by one."""
    n = len(thresholds)
    curve = RocCurve(np.array(thresholds), tps=np.arange(n), fps=2 * np.arange(n))
    write_roc_csv(curve, tmp_path / "roc.csv")
    assert (tmp_path / "roc.csv").read_bytes() == old_roc_csv(curve)


@pytest.mark.parametrize(
    "tps, fps",
    [([0, 1, 2], [0, 0, 0]), ([0, 0, 0], [0, 3, 0]), ([0, 2, 0], [0, 0, 0])],
)
def test_zero_totals_give_nan_and_infinite_rates(tmp_path, tps, fps):
    curve = RocCurve(np.array([np.inf, 0.5, 0.25]), np.array(tps), np.array(fps))
    with np.errstate(divide="ignore", invalid="ignore"):
        write_roc_csv(curve, tmp_path / "roc.csv")
        expected = old_roc_csv(curve)
    assert (tmp_path / "roc.csv").read_bytes() == expected
    assert b"nan" in expected


def test_special_thresholds_across_a_block_boundary(tmp_path):
    rng = np.random.default_rng(11)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.0, 2.0**-30, 1e20])
    thresholds = rng.random(_ROC_CSV_BLOCK_ROWS + 100)
    at = rng.choice(thresholds.size, 500, replace=False)
    thresholds[at] = rng.choice(specials, at.size)
    counts = np.arange(thresholds.size)
    curve = RocCurve(thresholds, tps=counts // 3, fps=counts - counts // 3)
    write_roc_csv(curve, tmp_path / "roc.csv")
    assert (tmp_path / "roc.csv").read_bytes() == old_roc_csv(curve)
