"""Fusion of global appearance embeddings with local pose features.

Global-only keeps the appearance embedding as-is; global-local appends the
54 pooled pose values, so the fused dimension is appearance_dim + 54.
"""

from enum import Enum

import numpy as np

from .errors import DimensionMismatch, MissingPose
from .pose import SEGMENT_FEATURE_DIM


class FusionMode(Enum):
    GLOBAL_ONLY = "global"
    GLOBAL_LOCAL_CONCAT = "global-local"


def fuse(appearance, pose, mode: FusionMode) -> np.ndarray:
    """Combine appearance embeddings with pose features along the last axis.

    `appearance` is (..., dim) and `pose`, which must be present exactly
    when the mode is GLOBAL_LOCAL_CONCAT, is (..., 54) over the same
    leading axes. The caller owns the appearance dimension: `load_video_bag`
    checks it against the manifest's `feature_dim`.
    """
    appearance = np.asarray(appearance, dtype=np.float64)
    if appearance.ndim == 0:
        raise DimensionMismatch("appearance embedding must be a vector, got a scalar")
    if mode is FusionMode.GLOBAL_ONLY:
        if pose is not None:
            raise ValueError("pose feature supplied in global-only mode")
        return appearance.copy()
    if pose is None:
        raise MissingPose("global-local fusion requires a pose feature")
    pose = np.asarray(pose, dtype=np.float64)
    expected = appearance.shape[:-1] + (SEGMENT_FEATURE_DIM,)
    if pose.shape != expected:
        raise DimensionMismatch(
            f"pose feature must have shape {expected}, got {pose.shape}"
        )
    return np.concatenate([appearance, pose], axis=-1)
