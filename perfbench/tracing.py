"""Per-layer tracing of ptde, from outside the program.

A Tracer wraps ptde's public functions at the module attributes their
callers look them up by (e.g. `ptde.trainer.backprop`, which is what
`train` calls), and restores the originals when its `installed()` block
ends. Each wrapped call is a span. Spans are aggregated per name as they
close (calls, total time, self time, counts) rather than kept one by one,
which keeps the cost per call to a few microseconds at 10^5 calls.

Self time is a span's duration minus the durations of the wrapped calls it
covers. A name that no longer exists is skipped and the metrics that need
it are reported as absent, so the benchmark survives refactors that move
or delete functions.
"""

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    # set when an observer could not read a call's arguments or result
    counts_broken: bool = False

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def _backprop_rows(args, result, st):
    head, pos, neg = args[:3]
    rows = len(pos) + len(neg)
    d, h1 = head.w1.shape
    h2 = head.w2.shape[1]
    out = head.w3.shape[1]
    st.add("rows", rows)
    # multiply-adds per row: forward (d*h1 + h1*h2 + h2*out), weight gradients
    # (the same), input gradients of layers 2 and 3 (h1*h2 + h2*out)
    st.add("flop", 2 * rows * (2 * d * h1 + 3 * h1 * h2 + 3 * h2 * out))


def _result_rows(args, result, st):
    st.add("rows", len(result))


def _pose_doc(args, result, st):
    st.add("bytes", len(args[0]))  # pose documents are ASCII JSON
    st.add("frames", len(result))


def _feature_bytes(args, result, st):
    st.add("bytes", os.path.getsize(args[0]))


def _auc_items(args, result, st):
    st.add("items", len(args[0]))


def _tree_bytes(args, result, st):
    st.add("bytes", sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(args[1])
        for f in files
    ))


# span name -> (module, attribute) sites it is wrapped at, and an optional
# observer that adds counts after the call
TARGETS = {
    "synth.generate_synthetic": ([("ptde.synth", "generate_synthetic")], _tree_bytes),
    "trainer.train": ([("ptde.cli", "train")], None),
    "trainer.adagrad_step": ([("ptde.trainer", "adagrad_step")], None),
    "scoring.backprop": ([("ptde.trainer", "backprop")], _backprop_rows),
    "scoring.score_segments": ([("ptde.cli", "score_segments")], _result_rows),
    "loss.mil_ranking_loss": ([("ptde.scoring", "mil_ranking_loss")], None),
    "loss.loss_score_gradients": ([("ptde.scoring", "loss_score_gradients")], None),
    "pose.parse_pose_document": ([("ptde.data", "parse_pose_document")], _pose_doc),
    "pose.pose_feature": ([("ptde.data", "pose_feature")], None),
    "pose.pool_pose": ([("ptde.data", "pool_pose")], None),
    "segmenting.aggregate_segment": ([("ptde.data", "aggregate_segment")], None),
    "fusion.fuse": ([("ptde.data", "fuse")], None),
    "data.load_manifest": ([("ptde.cli", "load_manifest")], None),
    "data.read_feature_file": ([("ptde.data", "read_feature_file")], _feature_bytes),
    "data.load_video_bag": (
        [("ptde.data", "load_video_bag"), ("ptde.cli", "load_video_bag")], None
    ),
    "data.checkpoint": (
        [("ptde.cli", "save_checkpoint"), ("ptde.cli", "load_checkpoint")], None
    ),
    "metrics.per_category_eval": ([("ptde.cli", "per_category_eval")], None),
    "metrics.auc": ([("ptde.metrics", "auc")], _auc_items),
    "metrics.roc_curve": ([("ptde.cli", "roc_curve")], None),
    "metrics.export": (
        [("ptde.cli", "write_roc_csv"), ("ptde.cli", "write_roc_svg")], None
    ),
    "cli.scored_test_segments": ([("ptde.cli", "scored_test_segments")], _result_rows),
}
SETUP_TARGETS = ("synth.generate_synthetic",)
CYCLE_TARGETS = tuple(name for name in TARGETS if name not in SETUP_TARGETS)


class Tracer:
    """Span statistics for the wrapped calls made inside `installed()`."""

    def __init__(self, names=CYCLE_TARGETS):
        self.names = tuple(names)
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []  # child time covered, per open span

    def _wrap(self, fn, st: SpanStats, observe):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child
            if observe is not None and not st.counts_broken:
                try:
                    observe(args, result, st)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    st.counts_broken = True
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name in self.names:
                sites, observe = TARGETS[name]
                for module_name, attr in sites:
                    try:
                        module = importlib.import_module(module_name)
                        original = getattr(module, attr)
                    except (ImportError, AttributeError):
                        continue  # gone: the metrics that need it are absent
                    st = self.stats.setdefault(name, SpanStats())
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, st, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _span(stats, name, what="total_s"):
    st = stats.get(name)
    return None if st is None else getattr(st, what)


def _count(stats, name, key):
    st = stats.get(name)
    if st is None or st.counts_broken:
        return None
    return st.counts.get(key, 0)


def _sum(*values):
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _ratio(num, den, scale=1.0):
    if num is None or den is None:
        return None
    return num * scale / den if den else 0.0


def _gflops(stats):
    flop = _count(stats, "scoring.backprop", "flop")
    return _ratio(flop, _span(stats, "scoring.backprop", "self_s"), 1e-9)


# name -> (unit, value from (cycle stats, epochs trained per cycle)).
# Durations are per cycle (one train + eval + roc); counts too.
LAYER_METRICS = {
    "trainer.epoch_ms": ("ms", lambda s, e: _ratio(_span(s, "trainer.train"), e, 1e3)),
    "trainer.self_s": ("s", lambda s, e: _span(s, "trainer.train", "self_s")),
    "trainer.adagrad_s": ("s", lambda s, e: _span(s, "trainer.adagrad_step")),
    "trainer.pairs": ("count", lambda s, e: _span(s, "scoring.backprop", "calls")),
    "scoring.backprop_s": ("s", lambda s, e: _span(s, "scoring.backprop", "self_s")),
    "scoring.backprop_calls": ("count", lambda s, e: _span(s, "scoring.backprop", "calls")),
    "scoring.backprop_rows": ("count", lambda s, e: _count(s, "scoring.backprop", "rows")),
    "scoring.backprop_gflop": ("GFLOP", lambda s, e: _ratio(
        _count(s, "scoring.backprop", "flop"), 1e9)),
    "scoring.backprop_gflops": ("GFLOP/s", lambda s, e: _gflops(s)),
    "scoring.score_s": ("s", lambda s, e: _span(s, "scoring.score_segments")),
    "scoring.score_rows": ("count", lambda s, e: _count(s, "scoring.score_segments", "rows")),
    "loss.ranking_s": ("s", lambda s, e: _span(s, "loss.mil_ranking_loss")),
    "loss.grad_s": ("s", lambda s, e: _span(s, "loss.loss_score_gradients")),
    "loss.calls": ("count", lambda s, e: _sum(
        _span(s, "loss.mil_ranking_loss", "calls"),
        _span(s, "loss.loss_score_gradients", "calls"))),
    "pose.parse_s": ("s", lambda s, e: _span(s, "pose.parse_pose_document")),
    "pose.parse_bytes": ("bytes", lambda s, e: _count(s, "pose.parse_pose_document", "bytes")),
    "pose.frames": ("count", lambda s, e: _count(s, "pose.parse_pose_document", "frames")),
    "pose.select_s": ("s", lambda s, e: _span(s, "pose.pose_feature")),
    "pose.pool_s": ("s", lambda s, e: _span(s, "pose.pool_pose", "self_s")),
    "segmenting.aggregate_s": ("s", lambda s, e: _span(s, "segmenting.aggregate_segment")),
    "segmenting.aggregate_calls": ("count", lambda s, e: _span(
        s, "segmenting.aggregate_segment", "calls")),
    "fusion.fuse_s": ("s", lambda s, e: _span(s, "fusion.fuse")),
    "fusion.fuse_calls": ("count", lambda s, e: _span(s, "fusion.fuse", "calls")),
    "data.load_manifest_s": ("s", lambda s, e: _span(s, "data.load_manifest")),
    "data.read_feature_s": ("s", lambda s, e: _span(s, "data.read_feature_file")),
    "data.read_feature_bytes": ("bytes", lambda s, e: _count(
        s, "data.read_feature_file", "bytes")),
    "data.load_bag_self_s": ("s", lambda s, e: _span(s, "data.load_video_bag", "self_s")),
    "data.bags": ("count", lambda s, e: _span(s, "data.load_video_bag", "calls")),
    "data.checkpoint_s": ("s", lambda s, e: _span(s, "data.checkpoint")),
    "metrics.eval_self_s": ("s", lambda s, e: _span(s, "metrics.per_category_eval", "self_s")),
    "metrics.auc_s": ("s", lambda s, e: _span(s, "metrics.auc")),
    "metrics.auc_items": ("count", lambda s, e: _count(s, "metrics.auc", "items")),
    "metrics.roc_s": ("s", lambda s, e: _span(s, "metrics.roc_curve")),
    "metrics.export_s": ("s", lambda s, e: _span(s, "metrics.export")),
    "cli.scored_self_s": ("s", lambda s, e: _span(s, "cli.scored_test_segments", "self_s")),
    "cli.segments": ("count", lambda s, e: _count(s, "cli.scored_test_segments", "rows")),
}

# name -> (unit, value from the set-up stats of one dataset generation)
SETUP_METRICS = {
    "synth.generate_s": ("s", lambda s: _span(s, "synth.generate_synthetic")),
    "synth.bytes_written": ("bytes", lambda s: _count(s, "synth.generate_synthetic", "bytes")),
}
