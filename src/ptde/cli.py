"""Command-line surface: synth, train, score, eval, roc.

Exit codes: 0 success, 1 usage error, 2 data/contract error. Errors go to
stderr. When --seed is omitted the PTDE_SEED environment variable is used,
then 0.
"""

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    SPLITS,
    bag_width,
    load_checkpoint,
    load_manifest,
    load_split_bags,
    load_video_bag,
    save_checkpoint,
)
from .errors import IoFailure, MissingGroundTruth, PtdeError
from .fusion import FusionMode
from .metrics import (
    CATEGORIES,
    DEFAULT_THRESHOLD,
    THEFT_CATEGORY,
    ScoredSplit,
    per_category_eval,
    roc_curve,
    write_roc_csv,
    write_roc_svg,
)
from .parallel import run_pieces
from .scoring import SPLIT_MULTIPLY_ADDS, score_segments
from .synth import SynthSpec, generate_synthetic
from .trainer import TrainConfig, train, write_run_log


# Rows of consecutive test videos scored by one call, which reads the
# first-layer weights once: a (256, 512) float64 layer-1 output is 1 MB and
# stays in L2, and a 4150-d block input is 8.5 MB.
SCORE_BLOCK_ROWS = 256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("PTDE_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"PTDE_SEED must be an integer, got {env!r}") from None


def scored_test_segments(manifest, head, fusion_mode) -> ScoredSplit:
    """Score every test-split segment into one ScoredSplit, in manifest order.

    Consecutive videos are loaded into one buffer and scored by one
    `score_segments` call while their rows fit in SCORE_BLOCK_ROWS; a longer
    video is scored alone, uncopied. Each video scores as it would alone
    (see `score_segments`). A video with no segment adds no row, and its
    bag is not loaded. Labels and categories come from the manifest
    records, before any bag is loaded. Theft videos must carry
    segment-level annotations; normal videos are all-negative by definition.

    When the split's layer-1 work reaches SPLIT_MULTIPLY_ADDS, the blocks
    are spread over `ptde.parallel`'s threads. Each block runs the same
    products on the same shapes whichever thread takes it, so the scores
    are the same, and a failure is that of the first failing block, as in
    the serial loop.
    """
    records = manifest.split_records("test")
    counts = [rec.num_segments for rec in records]
    offsets = np.cumsum([0] + counts, dtype=np.int64)
    labels = np.zeros(offsets[-1], dtype=np.int64)
    for rec, start, stop in zip(records, offsets[:-1], offsets[1:]):
        if rec.is_positive and start != stop:
            if rec.annotations is None:
                raise MissingGroundTruth(
                    f"test video {rec.video_id!r} has no segment annotations"
                )
            labels[start:stop] = rec.annotations
    scores = np.empty(offsets[-1], dtype=np.float64)
    # from the manifest, not the head: a head of another width then fails
    # in `score_segments` with the width it expects
    width = bag_width(manifest, fusion_mode)

    def score_block(videos):
        lo, hi = offsets[videos[0]], offsets[videos[-1] + 1]
        if len(videos) == 1:
            bag = load_video_bag(manifest, records[videos[0]].video_id, fusion_mode)
            scores[lo:hi] = score_segments(head, bag)
            return
        x = np.empty((hi - lo, width))
        for i in videos:
            x[offsets[i] - lo : offsets[i + 1] - lo] = load_video_bag(
                manifest, records[i].video_id, fusion_mode
            )
        scores[lo:hi] = score_segments(head, x, offsets[videos] - lo)

    blocks = []
    for i in np.flatnonzero(counts):
        if not blocks or offsets[i + 1] - offsets[blocks[-1][0]] > SCORE_BLOCK_ROWS:
            blocks.append([])
        blocks[-1].append(i)
    pieces = [partial(score_block, videos) for videos in blocks]
    # below the gate a block's time goes mostly to Python (pose parsing at
    # 118-d), which holds the GIL: a second thread would only contend for it
    if head.w1.size * offsets[-1] >= SPLIT_MULTIPLY_ADDS:
        run_pieces(pieces)
    else:
        for piece in pieces:
            piece()
    categories = np.repeat(
        np.array([CATEGORIES.index(rec.category) for rec in records], dtype=np.int64),
        counts,
    )
    return ScoredSplit(scores, labels, categories, offsets)


def _check_paths(inputs, outputs) -> None:
    """Refuse a command's output paths before it reads any input.

    `inputs` and `outputs` map flags, or other names, to paths; an output
    given no path is skipped. An output that names the same file as an
    earlier path is a usage error, and one that cannot be written, because
    its directory is missing or it is a directory itself, is a data error.
    """
    named = [(flag, path, Path(path).resolve()) for flag, path in inputs.items()]
    for flag, path in outputs.items():
        if path is None:
            continue
        out = Path(path)
        resolved = out.resolve()
        for other, other_path, other_resolved in named:
            if resolved == other_resolved:
                raise _UsageError(f"{flag} and {other} name the same file {other_path}")
        if not out.parent.is_dir():
            raise IoFailure(f"cannot write {flag} {path}: {out.parent} is not a directory")
        if out.is_dir():
            raise IoFailure(f"cannot write {flag} {path}: it is a directory")
        named.append((flag, path, resolved))


def _check_manifest_files(manifest, outputs) -> None:
    """`_check_paths` for outputs against the files the manifest names. As
    `load_manifest` found each of them, only an output that exists can be one."""
    if any(path is not None and os.path.exists(path) for path in outputs.values()):
        files = {
            f"the {field} of video {rec.video_id!r}": path
            for rec in manifest.videos
            for field, path in (("feature_file", rec.feature_path), ("pose_file", rec.pose_path))
            if path is not None
        }
        _check_paths(files, outputs)


# each category's word in the video-count flags, as in --train-theft
_COUNT_WORDS = {c: "theft" if c == THEFT_CATEGORY else c.lower() for c in CATEGORIES}


def _cmd_synth(args) -> int:
    train_counts, test_counts = (
        {c: getattr(args, f"{split}_{_COUNT_WORDS[c]}") for c in CATEGORIES}
        for split in SPLITS
    )
    spec = SynthSpec(
        seed=_resolve_seed(args.seed),
        name=args.name,
        feature_dim=args.dim,
        segment_length=args.segment_length,
        segments_min=args.segments_min,
        segments_max=args.segments_max,
        class_separation=args.separation,
        noise_scale=args.noise,
        theft_fraction=args.theft_fraction,
        train_counts=train_counts,
        test_counts=test_counts,
    )
    manifest_path = generate_synthetic(spec, args.out_dir)
    print(manifest_path)
    return 0


def _cmd_train(args) -> int:
    fusion = FusionMode(args.fusion)
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        pairs_per_epoch=args.pairs_per_epoch,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        seed=_resolve_seed(args.seed),
        fusion_mode=fusion,
    )
    log_path = args.out_log if args.out_log else f"{args.out_checkpoint}.log"
    outputs = {"--out-checkpoint": args.out_checkpoint, "--out-log": log_path}
    _check_paths({"--manifest": args.manifest}, outputs)
    manifest = load_manifest(args.manifest)
    _check_manifest_files(manifest, outputs)
    bags = load_split_bags(manifest, "train", fusion)
    run = train(bags, config)
    save_checkpoint(run.head, config, args.out_checkpoint)
    write_run_log(run, log_path)
    print(
        f"trained {config.epochs} epochs, final objective "
        f"{run.history[-1, 0]:.6f}, checkpoint {args.out_checkpoint}"
    )
    return 0


def _cmd_score(args) -> int:
    head, meta = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    bag = load_video_bag(manifest, args.video_id, meta.fusion_mode)
    for s in score_segments(head, bag):
        print(f"{s:.6f}")
    return 0


def _cmd_eval(args) -> int:
    if not math.isfinite(args.threshold):
        raise _UsageError(f"--threshold must be finite, got {args.threshold}")
    head, meta = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    segments = scored_test_segments(manifest, head, meta.fusion_mode)
    report = per_category_eval(segments, threshold=args.threshold)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_roc(args) -> int:
    outputs = {"--out-csv": args.out_csv, "--out-svg": args.out_svg}
    _check_paths({"--checkpoint": args.checkpoint, "--manifest": args.manifest}, outputs)
    head, meta = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    _check_manifest_files(manifest, outputs)
    segments = scored_test_segments(manifest, head, meta.fusion_mode)
    curve = roc_curve(segments.scores, segments.labels)
    write_roc_csv(curve, args.out_csv)
    if args.out_svg:
        write_roc_svg(curve, args.out_svg)
    print(f"auc {curve.area():.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ptde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SynthSpec()
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--name", default=spec.name)
    p.add_argument("--dim", type=int, default=spec.feature_dim)
    p.add_argument("--segment-length", type=int, default=spec.segment_length)
    p.add_argument("--segments-min", type=int, default=spec.segments_min)
    p.add_argument("--segments-max", type=int, default=spec.segments_max)
    p.add_argument("--separation", type=float, default=spec.class_separation)
    p.add_argument("--noise", type=float, default=spec.noise_scale)
    p.add_argument("--theft-fraction", type=float, default=spec.theft_fraction)
    for split, counts in zip(SPLITS, (spec.train_counts, spec.test_counts)):
        for c in CATEGORIES:
            p.add_argument(f"--{split}-{_COUNT_WORDS[c]}", type=int, default=counts[c])
    p.set_defaults(func=_cmd_synth)

    config = TrainConfig()
    p = sub.add_parser("train", help="train a scoring head on the train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", default=None)
    p.add_argument(
        "--fusion", choices=[m.value for m in FusionMode],
        default=config.fusion_mode.value,
    )
    p.add_argument("--lr", type=float, default=config.learning_rate)
    p.add_argument("--epochs", type=int, default=config.epochs)
    p.add_argument("--pairs-per-epoch", type=int, default=config.pairs_per_epoch)
    p.add_argument("--lambda1", type=float, default=config.lambda1)
    p.add_argument("--lambda2", type=float, default=config.lambda2)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="print per-segment scores for one video")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--video-id", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="evaluate the test split, JSON report on stdout")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("roc", help="export the test-split ROC curve")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=_cmd_roc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        # ValueError bubbles up from config validation of flag values
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PtdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
