import json
import os
import shutil
import struct

import numpy as np
import pytest

from ptde.cli import build_parser, main, scored_test_segments
from ptde.data import (
    load_checkpoint,
    load_manifest,
    read_feature_file,
    save_checkpoint,
    write_feature_file,
)
from ptde.fusion import FusionMode
from ptde.metrics import NORMAL_CATEGORIES, per_category_eval, roc_curve
from ptde.scoring import init_head
from ptde.synth import SynthSpec
from ptde.trainer import TrainConfig

TINY = [
    "--dim", "8",
    "--train-theft", "4", "--train-pickup", "2",
    "--train-delivery", "2", "--train-irrelevant", "1",
    "--test-theft", "3", "--test-pickup", "1",
    "--test-delivery", "2", "--test-irrelevant", "1",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    code = main(["synth", "--out-dir", str(root), "--seed", "4", *TINY])
    assert code == 0
    return root / "manifest.json"


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-ckpt") / "model.ckpt"
    code = main([
        "train", "--manifest", str(dataset), "--out-checkpoint", str(out),
        "--epochs", "5", "--pairs-per-epoch", "3", "--seed", "1",
        "--fusion", "global-local",
    ])
    assert code == 0
    return out


class TestSynthCommand:
    def test_prints_manifest_path(self, dataset, capsys):
        # the module fixture already ran; regenerate to capture stdout
        code = main(["synth", "--out-dir", str(dataset.parent), "--seed", "4", *TINY])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.endswith("manifest.json")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("PTDE_SEED", "21")
        assert main(["synth", "--out-dir", str(a), *TINY]) == 0
        monkeypatch.delenv("PTDE_SEED")
        assert main(["synth", "--out-dir", str(b), "--seed", "21", *TINY]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PTDE_SEED", "not-a-number")
        code = main(["synth", "--out-dir", str(tmp_path / "x"), *TINY])
        assert code == 1
        assert "PTDE_SEED" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        assert main(["synth", "--out-dir", str(blocker), "--seed", "4", *TINY]) == 2
        assert f"error: cannot write dataset under {blocker}" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, dataset, checkpoint):
        assert checkpoint.is_file()
        log = checkpoint.parent / (checkpoint.name + ".log")
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_test_video_without_segment_does_not_stop_training(
        self, dataset, checkpoint, tmp_path, capsys
    ):
        # 1 clip = 16 frames, shorter than one 32-frame segment
        root = tmp_path / "data"
        shutil.copytree(dataset.parent, root)
        write_feature_file(root / "short.ptdf", np.zeros((1, 8)))
        raw = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        raw["videos"].append({
            "id": "short", "split": "test", "category": "Pickup",
            "feature_file": "short.ptdf",
        })
        manifest = root / "manifest.json"
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        assert load_manifest(manifest).record("short").num_segments == 0
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--manifest", str(manifest), "--out-checkpoint", str(ckpt),
            "--epochs", "2", "--pairs-per-epoch", "2",
        ]) == 0
        # the video adds no row: the report is the one without it
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--manifest", str(dataset)]) == 0
        without = capsys.readouterr().out
        assert main(["eval", "--checkpoint", str(checkpoint), "--manifest", str(manifest)]) == 0
        assert capsys.readouterr().out == without
        assert main([
            "roc", "--checkpoint", str(checkpoint), "--manifest", str(manifest),
            "--out-csv", str(tmp_path / "roc.csv"),
        ]) == 0
        # a command that needs the video's own bag still stops
        assert main([
            "score", "--checkpoint", str(checkpoint), "--manifest", str(manifest),
            "--video-id", "short",
        ]) == 2
        err = capsys.readouterr().err
        assert "video of 16 frames is shorter than one segment of 32 frames" in err

    def test_train_video_without_segment_exits_2(self, dataset, tmp_path, capsys):
        # 1 clip = 16 frames, shorter than one 32-frame segment
        root = tmp_path / "data"
        shutil.copytree(dataset.parent, root)
        write_feature_file(root / "short.ptdf", np.zeros((1, 8)))
        raw = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        raw["videos"].append({
            "id": "short", "split": "train", "category": "Pickup",
            "feature_file": "short.ptdf",
        })
        manifest = root / "manifest.json"
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--manifest", str(manifest), "--out-checkpoint", str(ckpt),
            "--epochs", "2", "--pairs-per-epoch", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert "video of 16 frames is shorter than one segment of 32 frames" in err
        # the file and the video id, so the video can be found in a large split
        assert f"error: {root / 'short.ptdf'} ('short'): video of 16 frames" in err
        # neither the checkpoint nor the run log, nor a temporary file
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    def test_missing_manifest_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code = main([
            "train", "--manifest", str(missing),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1",
        ])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err


class TestScoreCommand:
    def test_line_count_matches_segment_arithmetic(self, dataset, checkpoint, capsys):
        manifest = json.loads(dataset.read_text(encoding="utf-8"))
        video = manifest["videos"][0]
        clip_count = len(read_feature_file(dataset.parent / video["feature_file"]))
        expected = (clip_count * manifest["clip_length"]) // manifest["segment_length"]
        code = main([
            "score", "--checkpoint", str(checkpoint),
            "--manifest", str(dataset), "--video-id", video["id"],
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == expected
        assert all(0.0 < float(line) < 1.0 for line in lines)

    def test_unknown_video_exits_2(self, dataset, checkpoint, capsys):
        code = main([
            "score", "--checkpoint", str(checkpoint),
            "--manifest", str(dataset), "--video-id", "ghost",
        ])
        assert code == 2
        assert "ghost" in capsys.readouterr().err


class TestEvalCommand:
    def test_report_structure(self, dataset, checkpoint, capsys):
        code = main([
            "eval", "--checkpoint", str(checkpoint), "--manifest", str(dataset),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold"] == 0.2
        assert 0.0 <= report["overall_auc"] <= 1.0
        assert set(report["per_category_auc"]) == set(NORMAL_CATEGORIES)
        assert report["segment_count"] > 0
        detections = report["detections"]
        assert (
            detections["total"]
            == detections["theft_segments"] + detections["normal_segments"]
        )

    def test_threshold_flag(self, dataset, checkpoint, capsys):
        code = main([
            "eval", "--checkpoint", str(checkpoint), "--manifest", str(dataset),
            "--threshold", "0.9",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == 0.9


class TestRocCommand:
    def test_csv_and_svg(self, dataset, checkpoint, tmp_path, capsys):
        csv = tmp_path / "roc.csv"
        svg = tmp_path / "roc.svg"
        code = main([
            "roc", "--checkpoint", str(checkpoint), "--manifest", str(dataset),
            "--out-csv", str(csv), "--out-svg", str(svg),
        ])
        assert code == 0
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) > 2
        assert svg.read_text(encoding="utf-8").startswith("<svg")
        assert capsys.readouterr().out.startswith("auc ")

    def test_roc_area_matches_eval_auc(self, dataset, checkpoint, tmp_path, capsys):
        csv = tmp_path / "roc.csv"
        main(["roc", "--checkpoint", str(checkpoint), "--manifest", str(dataset),
              "--out-csv", str(csv)])
        roc_out = capsys.readouterr().out
        main(["eval", "--checkpoint", str(checkpoint), "--manifest", str(dataset)])
        report = json.loads(capsys.readouterr().out)
        assert roc_out.strip() == f"auc {report['overall_auc']:.6f}"
        head, meta = load_checkpoint(checkpoint)
        split = scored_test_segments(load_manifest(dataset), head, meta.fusion_mode)
        assert (
            roc_curve(split.scores, split.labels).area()
            == per_category_eval(split)["overall_auc"]
            == report["overall_auc"]
        )


class TestEvalErrors:
    """`ptde eval` and `ptde roc` exit 2 when the test split cannot be scored
    against ground truth, and `roc` then writes no file."""

    def _edited(self, dataset, name, edit):
        # written next to the original, so its relative feature paths resolve
        manifest = json.loads(dataset.read_text(encoding="utf-8"))
        thefts = [v for v in manifest["videos"]
                  if v["split"] == "test" and v["category"] == "PackageTheft"]
        edit(thefts)
        path = dataset.parent / name
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path, thefts

    def _assert_both_exit_2(self, manifest, checkpoint, tmp_path, capsys, needle):
        common = ["--checkpoint", str(checkpoint), "--manifest", str(manifest)]
        csv = tmp_path / "roc.csv"
        for argv in (["eval", *common], ["roc", *common, "--out-csv", str(csv)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert needle in captured.err
        assert not csv.exists()

    def test_theft_video_without_annotations(
        self, dataset, checkpoint, tmp_path, capsys, monkeypatch
    ):
        manifest, thefts = self._edited(
            dataset, "no-annotations.json", lambda v: v[-1].pop("annotations")
        )
        # found before any bag is scored, though the video is the last theft
        reads = []
        monkeypatch.setattr(
            "ptde.data.read_feature_file",
            lambda path: reads.append(path) or read_feature_file(path),
        )
        self._assert_both_exit_2(
            manifest, checkpoint, tmp_path, capsys, repr(thefts[-1]["id"])
        )
        assert reads == []

    def test_no_theft_segments(self, dataset, checkpoint, tmp_path, capsys):
        def clear(thefts):
            for v in thefts:
                v["annotations"] = [0] * len(v["annotations"])

        manifest, _ = self._edited(dataset, "no-theft-segments.json", clear)
        self._assert_both_exit_2(
            manifest, checkpoint, tmp_path, capsys, "at least one positive"
        )


class TestFeatureFileChangedAfterLoad:
    """A feature file rewritten after `load_manifest` no longer matches the
    clip count the segments and annotations were sized from, or the
    dimension the head was trained for: `eval` and `roc` exit 2 and name
    the file."""

    @pytest.mark.parametrize(
        "extra_clips, dim_factor, needle",
        [
            (3, 1, "{path}: {count} clips"),
            (-1, 1, "{path}: {count} clips"),
            # same clip count, so only the dimension check can catch it
            (0, 2, "{path}: file dimension {dim} != manifest feature_dim 8"),
        ],
        ids=["grown", "shrunk", "wider"],
    )
    def test_eval_and_roc_exit_2(
        self, tmp_path, monkeypatch, capsys, extra_clips, dim_factor, needle
    ):
        # global-only, so no pose document is read to catch the change
        checkpoint = tmp_path / "m.ckpt"
        save_checkpoint(
            init_head(8, seed=0), TrainConfig(fusion_mode=FusionMode.GLOBAL_ONLY), checkpoint
        )
        root = tmp_path / "data"
        assert main(["synth", "--out-dir", str(root), "--seed", "4", *TINY]) == 0
        capsys.readouterr()
        path = root / "manifest.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        normal = [v for v in raw["videos"]
                  if v["split"] == "test" and v["category"] != "PackageTheft"]
        for v in normal:  # normal videos are all-negative without annotations
            del v["annotations"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        feature = root / normal[0]["feature_file"]
        clips = read_feature_file(feature)
        changed = np.ones((len(clips) + extra_clips, clips.shape[1] * dim_factor))
        needle = needle.format(path=feature, count=len(changed), dim=changed.shape[1])

        def load_then_rewrite(manifest_path):
            manifest = load_manifest(manifest_path)
            write_feature_file(feature, changed)
            return manifest

        monkeypatch.setattr("ptde.cli.load_manifest", load_then_rewrite)
        common = ["--checkpoint", str(checkpoint), "--manifest", str(path)]
        csv = tmp_path / "roc.csv"
        for argv in (["eval", *common], ["roc", *common, "--out-csv", str(csv)]):
            write_feature_file(feature, clips)  # the original, as load_manifest sees it
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert needle in captured.err
        assert not csv.exists()


class TestNotUtf8:
    """A manifest or pose document that is not UTF-8 is a contract error:
    exit 2, naming the file and the offset of the first undecodable byte."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_pose_document_exits_2(self, dataset, checkpoint, tmp_path, capsys, command):
        root = tmp_path / "data"
        shutil.copytree(dataset.parent, root)
        for pose in (root / "poses").iterdir():
            pose.write_bytes(b"\xff\xfe" + pose.read_bytes())
        manifest = str(root / "manifest.json")
        argv = {
            "train": ["train", "--manifest", manifest,
                      "--out-checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1",
                      "--fusion", "global-local"],
            "eval": ["eval", "--checkpoint", str(checkpoint), "--manifest", manifest],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{root / 'poses'}" in err
        assert "not UTF-8: byte 0xff at offset 0" in err

    def test_manifest_exits_2(self, dataset, checkpoint, tmp_path, capsys):
        raw = dataset.read_bytes()
        offset = raw.index(b'"name": "') + len(b'"name": "')
        manifest = dataset.parent / "not-utf8.json"
        manifest.write_bytes(raw[:offset] + b"\xff" + raw[offset:])
        assert main(["eval", "--checkpoint", str(checkpoint), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: not UTF-8: byte 0xff at offset {offset}" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == 1
        assert capsys.readouterr().err

    def test_invalid_flag_value(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path), "--noise", "0"])
        assert code == 1
        assert "noise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dim", "0"], "feature_dim must be >= 1"),
            (["--seed", "-1"], "seed must be a non-negative integer"),
            (["--train-pickup", "-1"], "train_counts must be non-negative"),
            (["--test-pickup", "0", "--test-delivery", "0", "--test-irrelevant", "0"],
             "test split needs at least one normal video"),
        ],
        ids=["dim-0", "negative-seed", "negative-count", "no-normal-video"],
    )
    def test_invalid_synth_spec(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["synth", "--out-dir", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {message}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, dataset, checkpoint, capsys, value):
        argv = ["eval", "--checkpoint", str(checkpoint), "--manifest", str(dataset)]
        assert main([*argv, f"--threshold={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threshold must be finite" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [("--lr", "nan"), ("--lr", "inf"), ("--lambda1", "nan"), ("--lambda2", "inf")],
    )
    def test_non_finite_train_setting(self, dataset, tmp_path, capsys, flag, value):
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--manifest", str(dataset), "--out-checkpoint", str(ckpt),
            "--epochs", "2", flag, value,
        ]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotdot"])
    def test_out_log_naming_the_checkpoint(
        self, dataset, checkpoint, tmp_path, capsys, spelling
    ):
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(checkpoint.read_bytes())
        (tmp_path / "sub").mkdir()
        log = {"same": ckpt, "dotdot": tmp_path / "sub" / ".." / "m.ckpt"}[spelling]
        assert main([
            "train", "--manifest", str(dataset), "--out-checkpoint", str(ckpt),
            "--out-log", str(log), "--epochs", "2",
        ]) == 1
        assert "name the same file" in capsys.readouterr().err
        assert ckpt.read_bytes() == checkpoint.read_bytes()

    def test_checkpoint_dataset_dim_mismatch(self, dataset, checkpoint, tmp_path, capsys):
        other = tmp_path / "other"
        assert main([
            "synth", "--out-dir", str(other), "--seed", "4", "--dim", "16",
            *TINY[2:],
        ]) == 0
        code = main([
            "eval", "--checkpoint", str(checkpoint),
            "--manifest", str(other / "manifest.json"),
        ])
        assert code == 2


class TestOutputPaths:
    """`train` and `roc` check their output paths before any input is read.
    An output that names the same file as another of the command's paths
    exits 1, naming both flags and the file; an output whose directory is
    missing, or that is a directory, exits 2 naming it. An output that names
    a feature or pose file of the manifest exits 1 once the manifest is
    loaded, before any bag is, naming the flag, video, field and file.
    Either way no file is written and the inputs keep their bytes."""

    CASES = {
        "roc-csv-is-svg": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/r", "--out-svg", "{root}/r"],
            1, "--out-svg and --out-csv name the same file {root}/r",
        ),
        "roc-csv-is-checkpoint": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{ckpt}"],
            1, "--out-csv and --checkpoint name the same file {ckpt}",
        ),
        "train-checkpoint-is-manifest": (
            ["train", "--manifest", "{manifest}", "--out-checkpoint", "{manifest}"],
            1, "--out-checkpoint and --manifest name the same file {manifest}",
        ),
        "train-log-is-manifest": (
            ["train", "--manifest", "{manifest}", "--out-checkpoint", "{root}/m2.ckpt",
             "--out-log", "{root}/features/../manifest.json"],
            1, "--out-log and --manifest name the same file {manifest}",
        ),
        "train-checkpoint-in-missing-dir": (
            ["train", "--manifest", "{manifest}",
             "--out-checkpoint", "{root}/absent/m.ckpt"],
            2, "error: cannot write --out-checkpoint {root}/absent/m.ckpt: "
               "{root}/absent is not a directory",
        ),
        "train-log-is-a-directory": (
            ["train", "--manifest", "{manifest}", "--out-checkpoint", "{root}/m2.ckpt",
             "--out-log", "{root}/features"],
            2, "error: cannot write --out-log {root}/features: it is a directory",
        ),
        "roc-csv-in-missing-dir": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/absent/r.csv"],
            2, "error: cannot write --out-csv {root}/absent/r.csv: "
               "{root}/absent is not a directory",
        ),
        "roc-svg-is-a-directory": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/r.csv", "--out-svg", "{root}/poses"],
            2, "error: cannot write --out-svg {root}/poses: it is a directory",
        ),
    }

    MANIFEST_CASES = {
        "roc-csv-is-a-feature-file": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/features/test_pickup_000.ptdf"],
            "--out-csv and the feature_file of video 'test_pickup_000' "
            "name the same file {root}/features/test_pickup_000.ptdf",
        ),
        "roc-csv-is-a-pose-file": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/poses/train_delivery_001.json"],
            "--out-csv and the pose_file of video 'train_delivery_001' "
            "name the same file {root}/poses/train_delivery_001.json",
        ),
        "roc-svg-is-a-feature-file": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/r.csv",
             "--out-svg", "{root}/features/train_packagetheft_000.ptdf"],
            "--out-svg and the feature_file of video 'train_packagetheft_000' "
            "name the same file {root}/features/train_packagetheft_000.ptdf",
        ),
        "roc-svg-is-a-pose-file": (
            ["roc", "--checkpoint", "{ckpt}", "--manifest", "{manifest}",
             "--out-csv", "{root}/r.csv", "--out-svg", "{root}/poses/test_delivery_001.json"],
            "--out-svg and the pose_file of video 'test_delivery_001' "
            "name the same file {root}/poses/test_delivery_001.json",
        ),
        "train-log-is-a-pose-file": (
            ["train", "--manifest", "{manifest}", "--out-checkpoint", "{root}/m2.ckpt",
             "--out-log", "{root}/poses/train_pickup_000.json"],
            "--out-log and the pose_file of video 'train_pickup_000' "
            "name the same file {root}/poses/train_pickup_000.json",
        ),
        "train-checkpoint-reaches-a-feature-file": (
            ["train", "--manifest", "{manifest}",
             "--out-checkpoint", "{root}/poses/../features/test_irrelevant_000.ptdf"],
            "--out-checkpoint and the feature_file of video 'test_irrelevant_000' "
            "name the same file {root}/features/test_irrelevant_000.ptdf",
        ),
    }

    @staticmethod
    def _refused(dataset, checkpoint, tmp_path, monkeypatch, capsys, argv, code,
                 needle, not_run):
        root = tmp_path / "data"
        shutil.copytree(dataset.parent, root)
        shutil.copy(checkpoint, root / "m.ckpt")
        names = dict(root=root, manifest=root / "manifest.json", ckpt=root / "m.ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output paths were checked")

        for name in not_run:
            monkeypatch.setattr(f"ptde.cli.{name}", refuse)
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert main([arg.format(**names) for arg in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle.format(**names) in captured.err
        after = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert after == before
        assert not list(root.rglob(".*.tmp"))
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_before_any_work(
        self, dataset, checkpoint, tmp_path, monkeypatch, capsys, case
    ):
        argv, code, needle = self.CASES[case]
        self._refused(
            dataset, checkpoint, tmp_path, monkeypatch, capsys, argv, code, needle,
            ("load_checkpoint", "load_manifest", "train", "scored_test_segments"),
        )

    @pytest.mark.parametrize("case", list(MANIFEST_CASES))
    def test_manifest_file_refused_before_any_bag(
        self, dataset, checkpoint, tmp_path, monkeypatch, capsys, case
    ):
        argv, needle = self.MANIFEST_CASES[case]
        self._refused(
            dataset, checkpoint, tmp_path, monkeypatch, capsys, argv, 1,
            "usage error: " + needle,
            ("load_split_bags", "train", "scored_test_segments"),
        )

    @staticmethod
    def _roc_to(link_output, dataset, checkpoint, tmp_path):
        """`ptde roc` on a copy of the dataset, its CSV at an output that
        `link_output(feature_file, output)` makes; returns the exit code,
        the feature file and its bytes before the run."""
        root = tmp_path / "data"
        shutil.copytree(dataset.parent, root)
        feature = root / "features" / "test_pickup_000.ptdf"
        before = feature.read_bytes()
        output = tmp_path / "roc.csv"
        link_output(feature, output)
        code = main([
            "roc", "--checkpoint", str(checkpoint),
            "--manifest", str(root / "manifest.json"), "--out-csv", str(output),
        ])
        return code, feature, before

    def test_symlink_output_to_a_feature_file_is_refused(
        self, dataset, checkpoint, tmp_path, capsys
    ):
        code, feature, before = self._roc_to(
            lambda feature, output: output.symlink_to(feature), dataset, checkpoint, tmp_path
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "usage error: --out-csv and the feature_file of video 'test_pickup_000' "
            f"name the same file {feature}"
        ) in captured.err
        assert feature.read_bytes() == before
        assert (tmp_path / "roc.csv").is_symlink()

    def test_hard_link_output_replaces_only_the_link(
        self, dataset, checkpoint, tmp_path, capsys
    ):
        """A hard link is another name of the feature file, not the same
        path: `os.replace` swaps the name, and the feature file keeps its bytes."""
        code, feature, before = self._roc_to(os.link, dataset, checkpoint, tmp_path)
        assert code == 0
        assert capsys.readouterr().out.startswith("auc ")
        assert feature.read_bytes() == before
        assert (tmp_path / "roc.csv").read_bytes().startswith(b"threshold,fpr,tpr\n")
        assert feature.stat().st_nlink == 1


class TestContractErrors:
    """A feature file header, manifest or pose document that breaks its
    contract stops `ptde train` with exit 2, naming the file, and in a
    manifest the video index where there is one. No checkpoint is written."""

    @pytest.fixture
    def root(self, dataset, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(dataset.parent, root)
        return root

    @staticmethod
    def _train_exits_2(root, tmp_path, capsys, needle):
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--manifest", str(root / "manifest.json"),
            "--out-checkpoint", str(ckpt), "--epochs", "1",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (None, None, "header truncated at byte 10"),
            (4, 2, "unsupported feature version 2"),
            (12, 0, "feature dimension 0"),
        ],
        ids=["truncated", "version", "dimension-0"],
    )
    def test_feature_header(self, root, tmp_path, capsys, offset, value, message):
        path = root / "features" / "train_packagetheft_000.ptdf"
        data = path.read_bytes()
        if offset is None:
            data = data[:10]
        else:
            data = data[:offset] + struct.pack("<I", value) + data[offset + 4 :]
        path.write_bytes(data)
        self._train_exits_2(root, tmp_path, capsys, f"error: {path}: {message}")

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda m: m.__delitem__("segment_length"),
             "{manifest}: missing field 'segment_length'"),
            (lambda m: m.update(feature_dim=True),
             "{manifest}: field 'feature_dim' must be an integer"),
            (lambda m: m["videos"][2].update(id=7),
             "{manifest} videos[2]: field 'id' has type int"),
            (lambda m: [m], "{manifest}: top level must be an object"),
            (lambda m: m.update(feature_dim=0), "{manifest}: feature_dim must be >= 1"),
            (lambda m: m.update(metadata=[]), "{manifest}: metadata must be an object"),
            (lambda m: m["videos"].__setitem__(1, "train_packagetheft_001"),
             "{manifest} videos[1]: must be an object"),
            (lambda m: m["videos"][3].update(split="val"),
             "{manifest} videos[3]: split must be one of ('train', 'test')"),
            (lambda m: m["videos"][0].update(pose_file="poses/absent.json"),
             "error: {root}/poses/absent.json\n"),
        ],
        ids=[
            "missing-field", "boolean-integer", "field-type", "top-level",
            "feature-dim-0", "metadata", "video-not-object", "split",
            "missing-pose-file",
        ],
    )
    def test_manifest(self, root, tmp_path, capsys, edit, needle):
        path = root / "manifest.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        replaced = edit(raw)
        path.write_text(json.dumps(raw if replaced is None else replaced), encoding="utf-8")
        needle = needle.format(manifest=path, root=root)
        self._train_exits_2(root, tmp_path, capsys, needle)

    def test_pose_document_with_a_non_ascii_character(self, root, tmp_path, capsys):
        # the byte pass rejects it; the json walk names the value
        path = root / "poses" / "train_packagetheft_000.json"
        doc = path.read_text(encoding="utf-8")
        value = "\u00e9t\u00e9"
        path.write_text(doc[:4] + f'"{value}"' + doc[doc.index(",", 4) :], encoding="utf-8")
        self._train_exits_2(
            root, tmp_path, capsys,
            f"error: {path}: frame 0 person 0 joint 0: non-numeric value {value!r}",
        )


class TestCheckpointHeader:
    def test_width_product_past_int64_exits_2(self, dataset, tmp_path, capsys):
        # input_dim = hidden1 = 2**32 - 1 wraps the int64 size to 2 floats
        path = tmp_path / "model.ckpt"
        header = struct.pack("<4sIIIIIIq", b"PTDE", 1, 2**32 - 1, 2**32 - 1, 1, 1, 0, 0)
        path.write_bytes(header + bytes(16))
        assert main(["eval", "--checkpoint", str(path), "--manifest", str(dataset)]) == 2
        assert f"error: {path}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("truncated", "header truncated at byte 10"),
            ("fusion-tag", "unknown fusion tag 7"),
            ("non-finite", "non-finite parameter values"),
        ],
    )
    def test_bad_checkpoint_exits_2(self, dataset, tmp_path, capsys, damage, message):
        path = tmp_path / "model.ckpt"
        head = init_head(8, seed=0)
        if damage == "non-finite":
            head.w2[3, 1] = np.inf
        save_checkpoint(head, TrainConfig(), path)
        data = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(data[:10])
        elif damage == "fusion-tag":
            path.write_bytes(data[:24] + struct.pack("<I", 7) + data[28:])
        for command in ("eval", "score"):
            argv = [command, "--checkpoint", str(path), "--manifest", str(dataset)]
            if command == "score":
                argv += ["--video-id", "test_packagetheft_000"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {path}: {message}" in captured.err


class TestFlagDefaults:
    """Every synth and train flag default is the matching field of a default
    SynthSpec or TrainConfig."""

    def test_synth_defaults(self):
        spec = SynthSpec()
        args = build_parser().parse_args(["synth", "--out-dir", "d"])
        assert args.name == spec.name
        assert args.dim == spec.feature_dim
        assert args.segment_length == spec.segment_length
        assert args.segments_min == spec.segments_min
        assert args.segments_max == spec.segments_max
        assert args.separation == spec.class_separation
        assert args.noise == spec.noise_scale
        assert args.theft_fraction == spec.theft_fraction
        assert {
            "PackageTheft": args.train_theft, "Pickup": args.train_pickup,
            "Delivery": args.train_delivery, "Irrelevant": args.train_irrelevant,
        } == spec.train_counts
        assert {
            "PackageTheft": args.test_theft, "Pickup": args.test_pickup,
            "Delivery": args.test_delivery, "Irrelevant": args.test_irrelevant,
        } == spec.test_counts

    def test_synth_flags_reach_the_spec(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(
            "ptde.cli.generate_synthetic", lambda spec, out: specs.append(spec)
        )
        argv = ["synth", "--out-dir", str(tmp_path), "--seed", "0"]
        assert main(argv) == 0
        counts = ["--train-theft", "1", "--train-pickup", "2", "--train-delivery", "3",
                  "--train-irrelevant", "4", "--test-theft", "5", "--test-pickup", "6",
                  "--test-delivery", "7", "--test-irrelevant", "8"]
        assert main(argv + counts) == 0
        assert specs[0] == SynthSpec()
        assert specs[1].train_counts == {
            "PackageTheft": 1, "Pickup": 2, "Delivery": 3, "Irrelevant": 4
        }
        assert specs[1].test_counts == {
            "PackageTheft": 5, "Pickup": 6, "Delivery": 7, "Irrelevant": 8
        }
        # key order is CATEGORIES order, which the manifest metadata records
        assert list(specs[1].train_counts) == list(SynthSpec().train_counts)

    def test_train_defaults(self):
        config = TrainConfig()
        args = build_parser().parse_args(
            ["train", "--manifest", "m", "--out-checkpoint", "c"]
        )
        assert FusionMode(args.fusion) is config.fusion_mode
        assert args.lr == config.learning_rate
        assert args.epochs == config.epochs
        assert args.pairs_per_epoch == config.pairs_per_epoch
        assert args.lambda1 == config.lambda1
        assert args.lambda2 == config.lambda2


class TestDeterminism:
    def test_full_pipeline_reproducible(self, tmp_path, capsys):
        reports = []
        for sub in ("r1", "r2"):
            root = tmp_path / sub
            assert main(["synth", "--out-dir", str(root), "--seed", "9", *TINY]) == 0
            ckpt = root / "m.ckpt"
            assert main([
                "train", "--manifest", str(root / "manifest.json"),
                "--out-checkpoint", str(ckpt), "--epochs", "4",
                "--pairs-per-epoch", "2", "--seed", "3",
            ]) == 0
            capsys.readouterr()
            assert main([
                "eval", "--checkpoint", str(ckpt),
                "--manifest", str(root / "manifest.json"),
            ]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


class TestOutOfRangeJson:
    """Numbers that json parses but float64 cannot hold are contract errors."""

    @pytest.fixture
    def fresh(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "4", *TINY]) == 0
        return tmp_path / "manifest.json"

    def _train(self, manifest, tmp_path):
        return main([
            "train", "--manifest", str(manifest),
            "--out-checkpoint", str(tmp_path / "m.ckpt"), "--epochs", "1",
        ])

    def _replace_first_pose_value(self, manifest, text):
        """Edit the first video's pose document; returns its path."""
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        pose = manifest.parent / raw["videos"][0]["pose_file"]
        doc = pose.read_text(encoding="utf-8")
        assert doc.startswith("[[[[")
        end = doc.index(",", 4)
        pose.write_text(doc[:4] + text + doc[end:], encoding="utf-8")
        return pose

    def test_pose_integer_beyond_float64_exits_2(self, fresh, tmp_path, capsys):
        pose = self._replace_first_pose_value(fresh, "1" + "0" * 309)
        assert self._train(fresh, tmp_path) == 2
        err = capsys.readouterr().err
        assert "frame 0 person 0: non-finite" in err
        assert f"error: {pose}: " in err

    def test_pose_integer_past_digit_limit_exits_2(self, fresh, tmp_path, capsys):
        pose = self._replace_first_pose_value(fresh, "9" * 5000)
        assert self._train(fresh, tmp_path) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err
        assert f"error: {pose}: " in err

    def test_manifest_integer_past_digit_limit_exits_2(self, fresh, tmp_path, capsys):
        text = fresh.read_text(encoding="utf-8")
        big = '"metadata": {"big": ' + "9" * 5000 + ", "
        fresh.write_text(text.replace('"metadata": {', big, 1), encoding="utf-8")
        assert self._train(fresh, tmp_path) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_pose_nesting_past_the_stack_exits_2(self, fresh, tmp_path, capsys):
        pose = self._replace_first_pose_value(fresh, "[" * 100_000 + "]" * 100_000)
        assert self._train(fresh, tmp_path) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err
        assert f"error: {pose}: " in err

    @pytest.mark.parametrize("key", ["image_width", "image_height"])
    @pytest.mark.parametrize(
        "value", [pytest.param(True, id="bool"), pytest.param(10**400, id="huge")]
    )
    def test_bad_image_size_exits_2(self, fresh, tmp_path, capsys, key, value):
        raw = json.loads(fresh.read_text(encoding="utf-8"))
        raw[key] = value
        fresh.write_text(json.dumps(raw), encoding="utf-8")
        assert self._train(fresh, tmp_path) == 2
        assert "image dimensions" in capsys.readouterr().err
