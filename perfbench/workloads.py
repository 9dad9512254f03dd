"""The benchmark's workloads and the datasets they run on.

Every dataset is a pure function of the workload seed: the same seed writes
the same files. `train-118` and `train-4150` use ptde's own synthetic
generator. `eval-frames` writes its PTDF files and manifest directly with
`ptde.data.write_feature_file`, keeping synth's cluster structure, because
synth writes a pose document per frame and at 10^5 one-clip segments that
would make set-up dominate the run.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ptde import data, synth

CLIP_FRAMES = 16
THEFT = "PackageTheft"
NORMALS = ("Pickup", "Delivery", "Irrelevant")


def synth_corpus(seed: int, out_dir: Path, *, feature_dim: int, noise: float,
                 train_counts=None, test_counts=None) -> Path:
    """ptde's synthetic corpus (240 videos of 4-8 segments of 32 frames by default)."""
    extra = {}
    if train_counts is not None:
        extra["train_counts"] = dict(train_counts)
    if test_counts is not None:
        extra["test_counts"] = dict(test_counts)
    spec = synth.SynthSpec(
        seed=seed, feature_dim=feature_dim, noise_scale=noise, **extra
    )
    # looked up on the module at call time, so a traced run can wrap it
    return synth.generate_synthetic(spec, out_dir)


def _theft_block(rng, num_segments: int, fraction: float) -> np.ndarray:
    length = min(num_segments, max(1, round(fraction * num_segments)))
    start = int(rng.integers(0, num_segments - length + 1))
    labels = np.zeros(num_segments, dtype=np.int64)
    labels[start : start + length] = 1
    return labels


def frame_corpus(seed: int, out_dir: Path, *, feature_dim: int, noise: float,
                 train_counts, test_counts, train_segments, test_segments,
                 theft_fraction: float = 0.35) -> Path:
    """Long videos of one-clip segments (segment_length 16), no pose files.

    Clip features follow synth's model: a unit-norm normal cluster mean, a
    theft mean one unit away along a random direction, isotropic Gaussian
    noise, and one contiguous block of theft segments per theft video.
    """
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(feature_dim)
    direction /= np.linalg.norm(direction)
    normal_mean = rng.standard_normal(feature_dim)
    normal_mean /= np.linalg.norm(normal_mean)
    theft_mean = normal_mean + direction

    videos = []
    for split, counts, (lo, hi) in (
        ("train", train_counts, train_segments),
        ("test", test_counts, test_segments),
    ):
        for category in (THEFT,) + NORMALS:
            for k in range(counts[category]):
                vid = f"{split}_{category.lower()}_{k:03d}"
                num_segments = int(rng.integers(lo, hi + 1))
                if category == THEFT:
                    gt = _theft_block(rng, num_segments, theft_fraction)
                else:
                    gt = np.zeros(num_segments, dtype=np.int64)
                means = np.where(gt[:, None] == 1, theft_mean, normal_mean)
                clips = means + noise * rng.standard_normal((num_segments, feature_dim))
                rel = f"features/{vid}.ptdf"
                data.write_feature_file(out_dir / rel, clips.astype(np.float32))
                videos.append({
                    "id": vid,
                    "split": split,
                    "category": category,
                    "feature_file": rel,
                    "annotations": gt.tolist(),
                })

    manifest = {
        "name": "perfbench-eval-frames",
        "feature_dim": feature_dim,
        "clip_length": CLIP_FRAMES,
        "segment_length": CLIP_FRAMES,
        "videos": videos,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    fusion: str  # value of ptde.fusion.FusionMode, passed to `ptde train --fusion`
    epochs: int
    generator: Callable[..., Path]
    corpus: dict = field(default_factory=dict)

    def make_dataset(self, seed: int, out_dir: Path) -> Path:
        """Write the workload's dataset under out_dir; returns the manifest path."""
        return self.generator(seed, out_dir, **self.corpus)


# Noise levels keep AUC informative: below the 1.0 ceiling, where a broken
# change could hide, and far enough above chance that training visibly works.
# At 4096-d the per-dimension noise is much smaller because a dozen epochs
# must find the theft direction among 4096.
WORKLOADS = {
    w.name: w
    for w in (
        # Python-overhead-bound training (60 small backprop calls per epoch)
        # plus pose parsing in bag assembly.
        Workload("train-118", "global-local", 200, synth_corpus,
                 {"feature_dim": 64, "noise": 0.45}),
        # BLAS-bound training (x.T @ dz1 at 4150 columns) and 64x the feature
        # bytes per clip in the data layer.
        Workload("train-4150", "global-local", 12, synth_corpus,
                 {"feature_dim": 4096, "noise": 0.12}),
        # ~10^5 one-clip test segments: the per-segment assembly loop,
        # forward-only scoring, ScoredSegment construction and AUC.
        Workload("eval-frames", "global", 50, frame_corpus, {
            "feature_dim": 64,
            "noise": 0.3,
            "train_counts": {THEFT: 72, "Pickup": 24, "Delivery": 24, "Irrelevant": 24},
            "test_counts": {THEFT: 160, "Pickup": 40, "Delivery": 80, "Irrelevant": 40},
            "train_segments": (16, 32),
            "test_segments": (250, 375),
        }),
    )
}
