"""Clip-feature aggregation into segment embeddings.

The external appearance extractor emits one feature vector per 16-frame
clip, so a segment's embedding is the mean of its clips' L2-normalized
features (how a video is cut into segments is described on
`ptde.data.VideoRecord`). Aggregation works on a whole video at once: a
(segments, clips, dim) array gives one (segments, dim) array.
"""

import numpy as np

from .errors import DimensionMismatch, EmptySegment, NonFiniteInput


# At or above this norm, a vector of fewer than 2**54 entries has a normal
# float (>= 2**-1022) as its largest square; below it, the squares may be
# subnormal and carry too few bits for a unit-norm result.
_SMALL_NORM = 2.0 ** -484


def l2_normalize(v) -> np.ndarray:
    """Scale each vector along the last axis to unit Euclidean norm; zero
    vectors are returned unchanged.

    Absent people or blank clips produce all-zero features, and those must
    not abort a pipeline run. Each norm is the square root of a stacked
    row-by-column product, which reduces in the same order as
    `np.linalg.norm` of the vector alone, so results do not depend on how
    many vectors are normalized together. A nonzero vector too small for
    that (norm below 2**-484) is first divided by its largest entry.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("vector contains NaN or infinite entries")
    rows = v.reshape(-1, v.shape[-1])
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))
    norms = norms.reshape(v.shape[:-1] + (1,))
    out = np.divide(v, norms, out=v.copy(), where=norms != 0.0)
    small = norms[..., 0] < _SMALL_NORM
    if small.any():
        # zero vectors stay as they are
        small &= np.any(v != 0.0, axis=-1)
        w = v[small]
        out[small] = l2_normalize(w / np.abs(w).max(axis=-1, keepdims=True))
    return out


def aggregate_segment(clips) -> np.ndarray:
    """Mean of the L2-normalized clip features of each segment.

    `clips` is (..., clips_per_segment, dim); the result is (..., dim).
    Clips are summed in order, as a per-segment loop would.
    """
    try:
        clips = np.asarray(clips, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"clip features differ in shape: {exc}") from exc
    if clips.ndim < 2 or clips.shape[-2] == 0:
        raise EmptySegment(
            f"segment contains no clip features (clip array shape {clips.shape})"
        )
    return l2_normalize(clips).mean(axis=-2)
