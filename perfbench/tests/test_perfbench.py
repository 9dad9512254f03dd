"""Tests of the benchmark itself, at tiny dataset sizes.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ptde.cli
from perfbench import bench, run, speed, tracing
from perfbench.tracing import LAYER_METRICS, SETUP_METRICS, TARGETS, Tracer
from perfbench.workloads import WORKLOADS, frame_corpus

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3
PAIRS = 30  # ptde train's default pairs per epoch

TINY_COUNTS = {"PackageTheft": 2, "Pickup": 1, "Delivery": 1, "Irrelevant": 1}


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    # tiny datasets take milliseconds; the minimum set-up time is for real runs
    monkeypatch.setattr(bench, "SETUP_MIN_SECONDS", 0.0)


def tiny(name: str):
    wl = WORKLOADS[name]
    corpus = {**wl.corpus, "train_counts": TINY_COUNTS, "test_counts": TINY_COUNTS}
    if wl.generator is frame_corpus:
        corpus.update(train_segments=(4, 8), test_segments=(6, 12))
    return dataclasses.replace(wl, epochs=2, corpus=corpus)


def run_tiny(name, tmp_path, trace=False, seconds=0.01):
    return bench.run(tiny(name), SEED, seconds, trace, tmp_path / "work")


def wrapped_sites():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for sites, _ in TARGETS.values()
        for module, attr in sites
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_end_to_end(name, tmp_path):
    result = run_tiny(name, tmp_path)
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert not any((tmp_path / "work").iterdir())  # the run cleans up after itself


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == bench.END_TO_END
    layer_units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    layer_units.update({name: unit for name, (unit, _) in SETUP_METRICS.items()})
    layer_units["trace_overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_units


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(LAYER_METRICS) + list(SETUP_METRICS) + list(bench.END_TO_END)
    assert all(NAME.fullmatch(n) for n in names)
    assert len({m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}) == len(
        SPEC["end_to_end"] + SPEC["per_layer"])


def _dataset_facts(name, tmp_path):
    """Counts derived from the generated files, independent of ptde."""
    out = tmp_path / "expected"
    manifest_path = tiny(name).make_dataset(SEED, out)
    manifest = json.loads(manifest_path.read_text())
    facts = {"train": {}, "test": {}}
    for split in facts:
        videos = [v for v in manifest["videos"] if v["split"] == split]
        poses = [out / v["pose_file"] for v in videos if v.get("pose_file")]
        theft = [v for v in videos if v["category"] == "PackageTheft"]
        facts[split] = {
            "videos": len(videos),
            "segments": sum(len(v["annotations"]) for v in videos),
            "theft_segments": sum(sum(v["annotations"]) for v in theft),
            "normal_segments": sum(len(v["annotations"]) for v in videos if v not in theft),
            "frames": sum(len(json.loads(p.read_text())) for p in poses),
            "pose_bytes": sum(p.stat().st_size for p in poses),
            "feature_bytes": sum((out / v["feature_file"]).stat().st_size for v in videos),
        }
    tree = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)
    return facts["train"], facts["test"], tree


@pytest.mark.parametrize("name", ["train-118", "eval-frames"])
def test_traced_counts_match_the_generated_inputs(name, tmp_path):
    result = run_tiny(name, tmp_path, trace=True)
    assert result["correct"], result["failures"]
    assert {k: len(v) for k, v in result["samples"].items()} == {
        "train_work_s": 1, "eval_work_s": 1,
        "traced_train_work_s": 1, "traced_eval_work_s": 1}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}

    train, test, tree = _dataset_facts(name, tmp_path)
    epochs = tiny(name).epochs
    # one cycle: train loads the train split, eval and roc each load the test split
    assert m["pose.frames"] == train["frames"] + 2 * test["frames"]
    assert m["pose.parse_bytes"] == train["pose_bytes"] + 2 * test["pose_bytes"]
    assert m["data.bags"] == train["videos"] + 2 * test["videos"]
    assert m["data.read_feature_bytes"] == train["feature_bytes"] + 2 * test["feature_bytes"]
    assert m["trainer.pairs"] == m["scoring.backprop_calls"] == epochs * PAIRS
    assert m["loss.calls"] == 2 * epochs * PAIRS
    segments = train["segments"] + 2 * test["segments"]
    assert m["segmenting.aggregate_calls"] == m["fusion.fuse_calls"] == segments
    assert m["scoring.score_rows"] == m["cli.segments"] == 2 * test["segments"]
    # eval: overall AUC, then theft segments against each normal category
    assert m["metrics.auc_items"] == (test["segments"] + 3 * test["theft_segments"]
                                      + test["normal_segments"])
    if name == "eval-frames":
        assert m["synth.bytes_written"] == 0
        assert all(m[k] == 0 for k in m if k.startswith("pose."))
    else:
        assert m["synth.bytes_written"] == tree
    assert m["metrics.auc_s"] > 0 and m["trainer.epoch_ms"] > 0


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = wrapped_sites()
    assert run_tiny("train-118", tmp_path, trace=True)["correct"]
    assert wrapped_sites() == before


def test_untraced_runs_install_no_wrappers(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")
    monkeypatch.setattr(Tracer, "installed", refuse)
    before = wrapped_sites()
    result = run_tiny("train-118", tmp_path)
    assert result["correct"], result["failures"]
    assert wrapped_sites() == before


def test_a_name_that_no_longer_exists_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(TARGETS, "pose.pose_feature",
                        ([("ptde.data", "no_longer_here")], None))
    result = run_tiny("train-118", tmp_path, trace=True)
    assert result["correct"], result["failures"]
    assert "pose.select_s" not in result["metrics"]
    assert "pose.pool_s" in result["metrics"]


def test_same_seed_runs_are_bitwise_identical(tmp_path):
    first = run_tiny("eval-frames", tmp_path)
    second = run_tiny("eval-frames", tmp_path)
    assert first["digests"] == second["digests"]
    assert set(first["digests"]) == {"dataset", "checkpoint", "eval_json"}


def test_a_failed_command_counts_as_a_failed_operation(tmp_path, monkeypatch):
    real_main = ptde.cli.main

    def broken_roc(argv):
        return 2 if argv[0] == "roc" else real_main(argv)
    monkeypatch.setattr(ptde.cli, "main", broken_roc)
    result = run_tiny("eval-frames", tmp_path)
    assert not result["correct"]
    assert "ptde roc" in result["failures"]
    assert result["metrics"]["eval_s"]["value"] is None


def test_run_refuses_a_directory_without_ptde_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-118",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_attributes_child_time_to_the_child():
    calls = []
    tracer = Tracer(names=())
    inner_stats = tracing.SpanStats()
    outer_stats = tracing.SpanStats()
    inner = tracer._wrap(lambda: calls.append("inner"), inner_stats, None)
    outer = tracer._wrap(lambda: (inner(), inner()), outer_stats, None)
    outer()
    assert calls == ["inner", "inner"]
    assert inner_stats.calls == 2 and outer_stats.calls == 1
    assert outer_stats.self_s == pytest.approx(outer_stats.total_s - inner_stats.total_s)


def test_speed_probe_samples_the_block_and_restores_the_signal():
    probe = speed.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.timing() as timing:
        time.sleep(0.3)  # resumed after each tick (PEP 475)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample before the clock starts, then about one per tick
    assert 0.3 / speed.TICK_S - 2 <= len(timing.samples) <= 0.3 / speed.TICK_S + 2
    probe_s = sum(py + blas for py, blas in timing.samples[1:])
    assert timing.work == pytest.approx(timing.wall - probe_s)
    assert timing.seconds == pytest.approx(
        timing.work / speed.SpeedProbe.slowness(timing.samples))


def test_speed_probe_stops_when_the_block_raises():
    probe = speed.SpeedProbe()
    with pytest.raises(RuntimeError):
        with probe.timing():
            raise RuntimeError("boom")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_slowness_is_one_at_the_reference_speed():
    assert speed.SpeedProbe.slowness(
        [(speed.REF_PY_S, speed.REF_BLAS_S)] * 3) == pytest.approx(1.0)
    assert speed.SpeedProbe.slowness(
        [(2 * speed.REF_PY_S, 2 * speed.REF_BLAS_S)]) == pytest.approx(2.0)
