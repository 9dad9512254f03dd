"""One benchmark run: set up a workload's dataset, then time `ptde train`,
`ptde eval` and `ptde roc` in-process through `ptde.cli.main` and check
every output. Untraced times are taken with a SpeedProbe (see speed.py),
which rescales them to a fixed reference speed of the machine.

A train step is `ptde train` and the checks on its loss history and
checkpoint; an eval step is `ptde eval` plus `ptde roc` on the last
checkpoint and the checks on their outputs. Steps repeat until the next one
would overrun the run's time budget. Every command and every check is one
operation; a command that exits non-zero or a check that fails or raises
counts as failed.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ptde import cli, data

from .speed import SpeedProbe, Timing
from .tracing import LAYER_METRICS, SETUP_METRICS, SETUP_TARGETS, Tracer
from .workloads import NORMALS, Workload

# Set-up is repeated, at least SETUP_MIN_REPS times and for at least
# SETUP_MIN_SECONDS, and its median reported: a short set-up (eval-frames
# writes its dataset in well under a second) gets more samples.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 5.0

# name -> (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "overall_auc": ("ratio", "higher"),
    "worst_category_auc": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# per-layer units whose values must repeat exactly from cycle to cycle
EXACT_UNITS = {"count", "bytes", "GFLOP"}

EVAL_KEYS = {"overall_auc", "per_category_auc", "threshold", "segment_count", "detections"}
DETECTION_KEYS = {"total", "theft_segments", "normal_segments"}


@dataclass
class Ops:
    """Attempted operations and the names of the ones that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, op) -> bool:
        """Run one operation; it fails if it raises or returns a false value."""
        self.attempted += 1
        try:
            ok = bool(op())
        except Exception:  # a broken output must be counted, not end the run
            traceback.print_exc()
            ok = False
        if not ok:
            self.failures.append(name)
        return ok


@dataclass
class Context:
    """What every step of one run shares."""

    wl: Workload
    manifest: Path
    seed: int
    workdir: Path
    test_segments: int
    ops: Ops
    probe: SpeedProbe


@dataclass
class Step:
    """One timed step: `ptde train`, or `ptde eval` plus `ptde roc`."""

    kind: str  # "train" or "eval"
    seconds: float | None  # at the reference speed; None when traced or failed
    work: float | None  # wall time less probe time; None when a command failed
    digest: str | None  # sha256 of the checkpoint, or of the eval JSON
    report: dict | None = None  # the parsed eval JSON, eval steps only


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@contextlib.contextmanager
def _wall_timing():
    """Plain wall time, for traced blocks: a probe would land in their spans."""
    timing = Timing(seconds=None)
    t0 = time.perf_counter()
    try:
        yield timing
    finally:
        timing.wall = timing.work = time.perf_counter() - t0


def _timing(probe: SpeedProbe | None):
    return probe.timing() if probe is not None else _wall_timing()


def _cli(argv, probe: SpeedProbe | None) -> tuple[Timing, int, str]:
    """Run one ptde command in-process: (its timing, exit code, stdout)."""
    out = io.StringIO()
    with _timing(probe) as timing, contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return timing, code, out.getvalue()


def _history_finite(log: Path, epochs: int) -> bool:
    rows = [line.split("\t") for line in log.read_text(encoding="utf-8").splitlines()]
    if len(rows) != epochs or any(len(r) != 5 for r in rows):
        return False
    return bool(np.all(np.isfinite(np.array([r[1:] for r in rows], dtype=np.float64))))


def _report_has_contract(report: dict, test_segments: int) -> bool:
    aucs = [report["overall_auc"], *report["per_category_auc"].values()]
    return (
        set(report) == EVAL_KEYS
        and set(report["detections"]) == DETECTION_KEYS
        and set(report["per_category_auc"]) == set(NORMALS)
        and report["segment_count"] == test_segments
        and all(0.0 <= a <= 1.0 for a in aucs)
    )


def _checkpoint_round_trips(ckpt: Path, copy: Path) -> bool:
    head, meta = data.load_checkpoint(ckpt)
    data.save_checkpoint(head, meta, copy)  # meta carries the seed and fusion mode
    return copy.read_bytes() == ckpt.read_bytes()


def _scores_in_unit_interval(csv: Path) -> bool:
    # ROC thresholds are the distinct scores, after the +inf sentinel row
    table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    scores = table[1:, 0]
    return (
        table[0, 0] == np.inf
        and scores.size > 0
        and bool(np.all((scores > 0.0) & (scores < 1.0)))
    )


def _command(ctx: Context, name: str, argv,
             tracer: Tracer | None) -> tuple[Timing | None, str]:
    """One CLI command as an operation: (its timing or None if it failed, stdout).

    Untraced commands are timed with the run's probe, traced ones by wall time.
    """
    result = [None, ""]

    def op():
        timing, code, out = _cli([name, *argv], None if tracer else ctx.probe)
        if code == 0:
            result[:] = [timing, out]
        return code == 0
    with _installed(tracer):
        ctx.ops.check(f"ptde {name}", op)
    return result[0], result[1]


def _installed(tracer: Tracer | None):
    return tracer.installed() if tracer is not None else contextlib.nullcontext()


def _step(kind: str, timings, digest, report=None) -> Step:
    """A step from its commands' timings; a failed command leaves it untimed."""
    if None in timings:
        return Step(kind, None, None, digest, report)
    seconds = None if None in (t.seconds for t in timings) else sum(
        t.seconds for t in timings)
    return Step(kind, seconds, sum(t.work for t in timings), digest, report)


def train_step(ctx: Context, tracer: Tracer | None = None, epochs: int | None = None) -> Step:
    """`ptde train` (the workload's epochs by default), then check the loss
    history and the checkpoint."""
    epochs = epochs or ctx.wl.epochs
    ckpt, log = ctx.workdir / "model.ckpt", ctx.workdir / "model.ckpt.log"
    for stale in (ckpt, log):
        stale.unlink(missing_ok=True)
    timing, _ = _command(ctx, "train", [
        "--manifest", ctx.manifest, "--out-checkpoint", ckpt,
        "--fusion", ctx.wl.fusion, "--epochs", epochs, "--seed", ctx.seed,
    ], tracer)
    ctx.ops.check("loss history is finite", lambda: _history_finite(log, epochs))
    ctx.ops.check("checkpoint round-trips bit-exactly",
                  lambda: _checkpoint_round_trips(ckpt, ctx.workdir / "roundtrip.ckpt"))
    return _step("train", [timing], sha256_file(ckpt) if ckpt.is_file() else None)


def eval_step(ctx: Context, tracer: Tracer | None = None) -> Step:
    """`ptde eval` and `ptde roc` on the last checkpoint, then check their outputs."""
    ckpt = ctx.workdir / "model.ckpt"
    csv, svg = ctx.workdir / "roc.csv", ctx.workdir / "roc.svg"
    for stale in (csv, svg):
        stale.unlink(missing_ok=True)
    eval_t, eval_out = _command(ctx, "eval", ["--checkpoint", ckpt,
                                              "--manifest", ctx.manifest], tracer)
    roc_t, roc_out = _command(ctx, "roc", ["--checkpoint", ckpt,
                                           "--manifest", ctx.manifest,
                                           "--out-csv", csv, "--out-svg", svg], tracer)
    parsed = {}

    def report_ok():
        parsed["report"] = json.loads(eval_out)
        return _report_has_contract(parsed["report"], ctx.test_segments)

    ctx.ops.check("eval report carries its contract keys", report_ok)
    ctx.ops.check("roc area equals overall_auc", lambda: (
        roc_out.strip() == f"auc {parsed['report']['overall_auc']:.6f}"))
    ctx.ops.check("every score lies in (0, 1)", lambda: _scores_in_unit_interval(csv))
    digest = hashlib.sha256(eval_out.encode()).hexdigest() if eval_out else None
    return _step("eval", [eval_t, roc_t], digest, parsed.get("report"))


STEPS = {"train": train_step, "eval": eval_step}


def _setup(wl: Workload, seed: int, workdir: Path, probe: SpeedProbe | None, ops: Ops):
    """Generate the dataset repeatedly (see SETUP_MIN_REPS); keep the first copy.

    Traced (no probe), each generation is traced and timed by wall time.
    Returns the manifest, the timings, the span stats and the dataset digest.
    """
    timings, stats, digests = [], [], []
    manifest = None
    rep = 0
    while rep < SETUP_MIN_REPS or sum(t.wall for t in timings) < SETUP_MIN_SECONDS:
        out = workdir / f"data{rep}"
        tracer = Tracer(SETUP_TARGETS) if probe is None else None
        with _installed(tracer), _timing(probe) as timing:
            path = wl.make_dataset(seed, out)
        timings.append(timing)
        if tracer is not None:
            stats.append(tracer.stats)
        digests.append(tree_digest(out))
        if rep == 0:
            manifest = path
        else:
            shutil.rmtree(out)
        rep += 1
    ops.check("dataset is a function of the seed", lambda: len(set(digests)) == 1)
    return manifest, timings, stats, digests[0]


def _test_segments(manifest: Path) -> int:
    # both generators annotate every test video, one label per segment
    videos = json.loads(manifest.read_text(encoding="utf-8"))["videos"]
    return sum(len(v["annotations"]) for v in videos if v["split"] == "test")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _times(steps, kind: str, what: str = "seconds") -> list:
    return [getattr(s, what) for s in steps if s.kind == kind]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(setup_times, steps) -> dict:
    """End-to-end metrics: times at the reference speed, medians over the run."""
    report = next((s.report for s in steps if s.report is not None), None)
    values = {
        "setup_s": statistics.median(setup_times),
        "train_s": _median(_times(steps, "train")),
        "eval_s": _median(_times(steps, "eval")),
        "overall_auc": report["overall_auc"] if report else None,
        "worst_category_auc": min(report["per_category_auc"].values()) if report else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return {name: _metric(values[name], unit) for name, (unit, _) in END_TO_END.items()}


def _per_layer(wl: Workload, setup_stats, steps, traced, ops: Ops) -> dict:
    """Per-layer metrics: medians of durations, counts of the first traced cycle.

    A metric whose function could not be wrapped is absent.
    """
    out = {}
    per_cycle = [
        {name: fn(stats, wl.epochs) for name, (_, fn) in LAYER_METRICS.items()}
        for stats, _ in traced
    ]
    exact = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [pc[name] for pc in per_cycle]
        if any(v is None for v in values):
            continue
        if unit in EXACT_UNITS:
            exact[name] = values
            out[name] = _metric(values[0], unit)
        else:
            out[name] = _metric(statistics.median(values), unit)
    if len(traced) > 1:
        ops.check("traced counts repeat across cycles",
                  lambda: all(len(set(v)) == 1 for v in exact.values()))

    for name, (unit, fn) in SETUP_METRICS.items():
        values = [fn(s) for s in setup_stats]
        if any(v is None for v in values):
            continue
        out[name] = _metric(statistics.median(values) if unit == "s" else values[0], unit)

    traced_steps = [s for _, pair in traced for s in pair]
    cycle = [_median(_times(steps, k, "work")) for k in STEPS]
    traced_cycle = [_median(_times(traced_steps, k, "work")) for k in STEPS]
    if None not in cycle + traced_cycle:
        plain, with_trace = sum(cycle), sum(traced_cycle)
        out["trace_overhead_frac"] = _metric((with_trace - plain) / plain, "ratio")
    return out


def _warm_up(ctx: Context) -> None:
    """`ptde train --epochs 1` and an eval step on its checkpoint, checked
    like every step but left out of every metric: the first run of a
    command in the process pays for page faults and allocator growth that
    later runs do not, and one epoch is enough to pay them."""
    train_step(ctx, epochs=1)
    eval_step(ctx)


def _next_kind(steps, last_wall: dict, time_left: float) -> str | None:
    """The kind with fewer samples so far (train on a tie), or else the other
    kind if the first would not fit in the time left; None when neither fits.
    A kind not run yet always fits, so every kind has a sample."""
    count = {kind: 0 for kind in STEPS}
    for s in steps:
        count[s.kind] += 1
    for kind in sorted(STEPS, key=count.get):
        if kind not in last_wall or last_wall[kind] <= time_left:
            return kind
    return None


def _measure(ctx: Context, seconds: float, trace: bool):
    """Warm up, then run steps until no further one fits in `seconds`.

    Untraced, the steps alternate between train and eval as the time allows
    (see _next_kind). Traced, whole cycles (train then eval) alternate
    between untraced and traced, starting untraced, until a traced cycle
    has run and another would not fit. Returns the untraced steps and the
    traced cycles as (span stats, [train step, eval step]).
    """
    steps, traced = [], []
    start = time.perf_counter()
    _warm_up(ctx)
    if trace:
        while True:
            t0 = time.perf_counter()
            tracer = Tracer() if len(steps) > 2 * len(traced) else None
            pair = [train_step(ctx, tracer), eval_step(ctx, tracer)]
            if tracer is None:
                steps.extend(pair)
            else:
                traced.append((tracer.stats, pair))
            now = time.perf_counter()
            if traced and now - start + (now - t0) > seconds:
                return steps, traced
    last_wall = {}
    while True:
        kind = _next_kind(steps, last_wall, seconds - (time.perf_counter() - start))
        if kind is None:
            return steps, traced
        t0 = time.perf_counter()
        steps.append(STEPS[kind](ctx))
        last_wall[kind] = time.perf_counter() - t0


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def machine_facts(root: Path, workload: str, seed: int) -> dict:
    src = root / "src" / "ptde"
    src_digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "src_sha256": src_digest.hexdigest(),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """Run one workload; returns the result plus digests, samples and failed checks."""
    ops = Ops()
    probe = SpeedProbe()
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=work_root))
    try:
        manifest, setup, setup_stats, dataset_digest = _setup(
            wl, seed, workdir, None if trace else probe, ops
        )
        ctx = Context(wl, manifest, seed, workdir, _test_segments(manifest), ops, probe)
        steps, traced = _measure(ctx, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    traced_steps = [s for _, pair in traced for s in pair]
    digests = {"dataset": dataset_digest}
    for kind, name in (("train", "checkpoint"), ("eval", "eval_json")):
        found = [s.digest for s in steps + traced_steps if s.kind == kind]
        digests[name] = found[0]
        if len(found) > 1:
            ops.check(f"every {kind} step gave the same bytes (same seed)",
                      lambda found=found: len(set(found)) == 1)

    # every timed sample: at the reference speed (untraced only) and as work
    samples = {f"{k}_work_s": _times(steps, k, "work") for k in STEPS}
    if trace:
        metrics = _per_layer(wl, setup_stats, steps, traced, ops)
        samples.update({f"traced_{k}_work_s": _times(traced_steps, k, "work")
                        for k in STEPS})
    else:
        metrics = _end_to_end([t.seconds for t in setup], steps)
        samples.update({"setup_s": [t.seconds for t in setup],
                        "setup_work_s": [t.work for t in setup]})
        samples.update({f"{k}_s": _times(steps, k) for k in STEPS})
    failed = len(ops.failures)
    return {
        "correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": ops.failures,
        "samples": samples,
        "digests": digests,
    }
