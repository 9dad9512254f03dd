"""Weakly supervised package-theft scoring for segmented surveillance video.

Per-clip appearance embeddings and per-frame pose keypoints are fused into
segment embeddings; a small feedforward head is trained with a ranking
objective over (theft video, normal video) bag pairs and evaluated with
ROC/AUC reports.
"""

from .data import (
    BagSet,
    CheckpointMeta,
    Manifest,
    VideoRecord,
    load_checkpoint,
    load_manifest,
    load_split_bags,
    load_video_bag,
    read_feature_file,
    save_checkpoint,
    write_feature_file,
)
from .errors import PtdeError
from .fusion import FusionMode, fuse
from .loss import (
    LossBreakdown,
    loss_score_gradients,
    mil_ranking_loss,
    ranking_satisfied,
)
from .metrics import (
    DEFAULT_THRESHOLD,
    RocCurve,
    ScoredSplit,
    auc,
    per_category_eval,
    roc_curve,
)
from .pose import parse_pose_document, pool_pose, pose_feature
from .scoring import (
    ScoringHead,
    backprop,
    init_head,
    score_segments,
)
from .segmenting import aggregate_segment, l2_normalize
from .synth import SynthSpec, generate_synthetic
from .trainer import TrainConfig, TrainRun, adagrad_step, train

__version__ = "0.1.0"

__all__ = [
    "BagSet",
    "CheckpointMeta",
    "DEFAULT_THRESHOLD",
    "FusionMode",
    "LossBreakdown",
    "Manifest",
    "PtdeError",
    "RocCurve",
    "ScoredSplit",
    "ScoringHead",
    "SynthSpec",
    "TrainConfig",
    "TrainRun",
    "VideoRecord",
    "adagrad_step",
    "aggregate_segment",
    "auc",
    "backprop",
    "fuse",
    "generate_synthetic",
    "init_head",
    "l2_normalize",
    "load_checkpoint",
    "load_manifest",
    "load_split_bags",
    "load_video_bag",
    "loss_score_gradients",
    "mil_ranking_loss",
    "parse_pose_document",
    "per_category_eval",
    "pool_pose",
    "pose_feature",
    "ranking_satisfied",
    "read_feature_file",
    "roc_curve",
    "save_checkpoint",
    "score_segments",
    "train",
    "write_feature_file",
]
