import errno
import threading

import numpy as np
import pytest

from ptde import fileio
from ptde.data import load_checkpoint, read_feature_file, save_checkpoint, write_feature_file
from ptde.fileio import write_atomic
from ptde.fusion import FusionMode
from ptde.scoring import init_head
from ptde.trainer import TrainConfig


def failing_chunks():
    yield b"partial "
    raise RuntimeError("disk went away")


class TestWriteAtomic:
    def test_writes_the_chunks(self, tmp_path):
        path = tmp_path / "out.bin"
        write_atomic(path, [b"ab", b"", b"cd"])
        assert path.read_bytes() == b"abcd"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_failure_mid_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")
        with pytest.raises(RuntimeError, match="disk went away"):
            write_atomic(path, failing_chunks())
        assert path.read_bytes() == b"previous contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_failure_without_a_previous_file_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_atomic(tmp_path / "out.bin", failing_chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failed_checkpoint_write_keeps_the_previous_checkpoint(self, tmp_path):
        config = TrainConfig(seed=4, fusion_mode=FusionMode.GLOBAL_ONLY)
        path = tmp_path / "head.ckpt"
        save_checkpoint(init_head(6, 1), config, path)
        before = path.read_bytes()
        broken = init_head(6, 2)
        broken.b3 = np.array(["not a number"])  # fails after the other arrays
        with pytest.raises(ValueError):
            save_checkpoint(broken, config, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["head.ckpt"]
        head, _ = load_checkpoint(path)
        assert np.array_equal(head.w1, init_head(6, 1).w1)

    @pytest.mark.parametrize(
        "failure",
        [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["disk-full", "interrupt"],
    )
    def test_failed_feature_file_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch, failure
    ):
        path = tmp_path / "clips.ptdf"
        write_feature_file(path, np.ones((3, 4)))
        before = path.read_bytes()

        def fail(src, dst):
            raise failure

        monkeypatch.setattr(fileio.os, "replace", fail)
        with pytest.raises(type(failure)):
            write_feature_file(path, np.zeros((5, 4)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clips.ptdf"]
        monkeypatch.undo()
        np.testing.assert_array_equal(read_feature_file(path), np.ones((3, 4)))

    def test_feature_file_shape_error_touches_no_file(self, tmp_path):
        path = tmp_path / "clips.ptdf"
        write_feature_file(path, np.ones((3, 4)))
        before = path.read_bytes()
        message = r"clips must be a \(count, dim\) array, got \(2, 3, 4\)"
        with pytest.raises(ValueError, match=message):
            write_feature_file(path, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            write_feature_file(tmp_path / "new.ptdf", np.zeros((2, 3, 4)))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clips.ptdf"]

    def test_error_names_the_requested_file(self, tmp_path):
        path = tmp_path / "missing" / "out.bin"
        with pytest.raises(FileNotFoundError) as info:
            write_atomic(path, [b"x"])
        assert info.value.filename == str(path)

    def test_threads_writing_one_path_each_leave_a_whole_payload(self, tmp_path):
        path = tmp_path / "out.bin"
        payloads = [bytes([65 + k]) * 4096 for k in range(2)]
        start = threading.Barrier(2)
        errors = []

        def writer(payload):
            try:
                start.wait()
                # many small chunks keep both temp files open at once
                write_atomic(path, (payload[i : i + 64] for i in range(0, len(payload), 64)))
            except BaseException as exc:
                errors.append(exc)

        for _ in range(200):
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert errors == []
            assert path.read_bytes() in payloads
            assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
