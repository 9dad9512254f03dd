"""ptde.parallel, and the training and eval work spread over it.

The split products are only taken at one BLAS thread, so the tests that
need them run in a subprocess with OPENBLAS_NUM_THREADS=1.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import ptde
from ptde import cli, parallel, scoring, trainer
from ptde.cli import main
from ptde.data import BagSet, load_manifest, save_checkpoint, write_feature_file
from ptde.fusion import FusionMode
from ptde.scoring import ScoringHead
from ptde.trainer import ADAGRAD_EPSILON, adagrad_step

SRC = Path(ptde.__file__).resolve().parents[1]


@pytest.fixture
def helpers(monkeypatch):
    """Set the helper count and start from no pool; the pool made is shut down."""

    def use(n):
        monkeypatch.setattr(parallel, "HELPERS", n)
        monkeypatch.setattr(parallel, "_pool", None)

    yield use
    if parallel._pool is not None:
        parallel._pool.shutdown()


def run_one_blas_thread(code: str, *args):
    """Run `code` with `args` in a fresh interpreter limited to one BLAS
    thread; the JSON its last output line holds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("blas_env, one_thread", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({}, False),
])
def test_helpers_only_beside_one_blas_thread(blas_env, one_thread):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    code = ("import json, os; from ptde import parallel; print(json.dumps("
            "[parallel.ONE_BLAS_THREAD, parallel.HELPERS, len(os.sched_getaffinity(0))]))")
    out = subprocess.run([sys.executable, "-c", code], env={**env, **blas_env},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got_one, helpers, cores = json.loads(out.stdout)
    assert got_one == one_thread
    assert helpers == (cores - 1 if one_thread else 0)


class TestRunPieces:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_results_come_back_in_input_order(self, helpers, n):
        helpers(n)

        def piece(i):
            time.sleep(0.001 * (i % 3))
            return i * i

        pieces = [lambda i=i: piece(i) for i in range(40)]
        assert parallel.run_pieces(pieces) == [i * i for i in range(40)]
        assert parallel.run_pieces([]) == []

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_lowest_failing_piece_wins(self, helpers, n):
        helpers(n)

        def piece(i):
            if i in (5, 6, 9):
                time.sleep(0.02 if i == 5 else 0.0)  # 6 fails first
                raise ValueError(i)
            return i

        with pytest.raises(ValueError, match="^5$"):
            parallel.run_pieces([lambda i=i: piece(i) for i in range(20)])

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_no_piece_is_claimed_after_an_error(self, helpers, n):
        helpers(n)
        ran = []

        def piece(i):
            ran.append(i)
            if i == 0:
                raise RuntimeError("first")
            time.sleep(0.05)

        with pytest.raises(RuntimeError, match="first"):
            parallel.run_pieces([lambda i=i: piece(i) for i in range(30)])
        # piece 0 fails at once; each other thread has claimed one piece at most
        assert sorted(ran) == list(range(len(ran))) and len(ran) <= n + 1

    def test_nested_call_runs_inline(self, helpers):
        helpers(1)

        def outer(k):
            mine = threading.get_ident()
            got = parallel.run_pieces(
                [lambda i=i: (k + i, threading.get_ident()) for i in range(4)]
            )
            return [v for v, _ in got] == [k, k + 1, k + 2, k + 3] and all(
                t == mine for _, t in got
            )

        assert parallel.run_pieces([lambda k=k: outer(k) for k in range(6)]) == [True] * 6

    @pytest.mark.parametrize("failure", [KeyboardInterrupt, ValueError])
    def test_main_thread_failure_stops_the_helpers(self, helpers, failure):
        helpers(1)
        ran = []

        def piece(i):
            if threading.current_thread() is threading.main_thread():
                raise failure
            ran.append(i)
            time.sleep(0.02)

        with pytest.raises(failure):
            parallel.run_pieces([lambda i=i: piece(i) for i in range(50)])
        claimed = len(ran)
        time.sleep(0.1)
        assert len(ran) == claimed <= 2

    def test_every_piece_runs_once_under_contention(self, helpers):
        # more threads than cores, and the interpreter switching threads often
        helpers(3)
        runs = [0] * 3000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                pieces = [lambda i=i: runs.__setitem__(i, runs[i] + 1) or i for i in range(3000)]
                assert parallel.run_pieces(pieces) == list(range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert runs == [5] * 3000

    def test_one_piece_or_no_helper_makes_no_pool(self, helpers):
        helpers(0)
        parallel.run_pieces([lambda: 1, lambda: 2])
        helpers(3)
        parallel.run_pieces([lambda: 1])
        assert parallel._pool is None


EQUIVALENCE = r"""
import hashlib, json
import numpy as np
from ptde import scoring
from ptde.scoring import SPLIT_MULTIPLY_ADDS, _activate, _backward, _forward, _halves, init_head

def digest(a):
    return hashlib.sha256(memoryview(np.ascontiguousarray(a))).hexdigest()

rng = np.random.default_rng(5)
out = []
for d in (8, 118, 386, 566, 974, 1000, 4150):
    head = init_head(d, d)
    gate = -(-SPLIT_MULTIPLY_ADDS // (d * scoring.HIDDEN1))
    for rows in (gate, gate + 1, gate + 37):
        x = rng.standard_normal((rows, d))
        whole = digest(_activate(x @ head.w1, head.b1))
        halves = len(_halves(rows, rows * d * scoring.HIDDEN1))
        h1, h2, _ = _forward(head, x)
        forward_equal = digest(h1) == whole
        dz3 = rng.standard_normal((rows, 1))
        dw1 = _backward(head, x, h1, h2, dz3).w1  # h1 now holds dz1
        out.append([d, rows, halves, forward_equal, digest(dw1) == digest(x.T @ h1)])
        del h1, h2
print(json.dumps(out))
"""


def test_split_layer1_products_equal_the_whole_products_bitwise():
    cases = run_one_blas_thread(EQUIVALENCE)
    assert len(cases) == 21
    for d, rows, halves, forward_equal, backward_equal in cases:
        assert halves == 2, (d, rows)
        assert forward_equal, f"x @ w1 differs at d={d}, rows={rows}"
        assert backward_equal, f"x.T @ dz1 differs at d={d}, rows={rows}"


def test_halves_below_the_gate_or_above_one_blas_thread(monkeypatch):
    monkeypatch.setattr(scoring, "ONE_BLAS_THREAD", True)
    assert scoring._halves(10, scoring.SPLIT_MULTIPLY_ADDS - 1) == [(0, 10)]
    assert scoring._halves(11, scoring.SPLIT_MULTIPLY_ADDS) == [(0, 5), (5, 11)]
    monkeypatch.setattr(scoring, "ONE_BLAS_THREAD", False)
    assert scoring._halves(11, scoring.SPLIT_MULTIPLY_ADDS) == [(0, 11)]


@pytest.mark.parametrize("n", [1, 3])
def test_spread_adagrad_step_equals_the_serial_step_bitwise(helpers, n):
    rng = np.random.default_rng(8)
    shapes = [(1100, 512), (512,), (512, 32), (32,), (32, 1), (1,)]  # 14 blocks
    start = [ScoringHead(*(rng.standard_normal(s) for s in shapes)),
             ScoringHead(*(rng.standard_normal(s) for s in shapes)),
             ScoringHead(*(rng.random(s) for s in shapes))]
    results = []
    for count in (0, n):
        helpers(count)
        head, grads, sum_sq = (ScoringHead(*(p.copy() for p in h.params())) for h in start)
        adagrad_step(head, grads, sum_sq, 0.01, 30)
        results.append([p for h in (head, grads, sum_sq) for p in h.params()])
    assert parallel._pool is not None  # the step did spread
    for serial, spread in zip(*results):
        assert serial.tobytes() == spread.tobytes()
    # and both are the whole-array formula
    g = start[1].w1 / 30
    s = start[2].w1 + g * g
    u = g * 0.01
    t = np.sqrt(s)
    t += ADAGRAD_EPSILON
    u /= t
    assert results[0][0].tobytes() == (start[0].w1 - u).tobytes()


@pytest.mark.parametrize("width, spreads", [(384, False), (385, True)])
def test_adagrad_spreads_past_eight_blocks(helpers, width, spreads):
    helpers(1)
    head = scoring.init_head(width, 0)
    grads, sum_sq = (ScoringHead(*(np.zeros_like(p) for p in head.params())) for _ in range(2))
    adagrad_step(head, grads, sum_sq, 0.01)
    assert (parallel._pool is not None) == spreads


INVARIANCE = r"""
import hashlib, json, sys
from pathlib import Path
from ptde import parallel, scoring, trainer
from ptde.cli import main

pieces = {"scoring": [0], "trainer": [0]}
def counted(module):
    run = module.run_pieces
    def run_pieces(ps):
        ps = list(ps)
        pieces[module.__name__.split(".")[1]].append(len(ps))
        return run(ps)
    module.run_pieces = run_pieces
counted(scoring)
counted(trainer)

root = Path(sys.argv[1])
# enough theft rows that the backward product passes the gate as well
counts = ["--train-theft", "16", "--train-pickup", "3", "--train-delivery", "3",
          "--train-irrelevant", "3", "--test-theft", "1", "--test-pickup", "1",
          "--test-delivery", "1", "--test-irrelevant", "1"]
assert main(["synth", "--out-dir", str(root / "data"), "--seed", "2", "--dim", "4096",
             "--segments-min", "6", *counts]) == 0
out = {}
for fusion in ("global", "global-local"):
    for helpers in (0, 1, 3):
        parallel.HELPERS, parallel._pool = helpers, None
        for seen in pieces.values():
            del seen[1:]
        ckpt = root / f"{fusion}-{helpers}.ckpt"
        assert main(["train", "--manifest", str(root / "data" / "manifest.json"),
                     "--out-checkpoint", str(ckpt), "--epochs", "3", "--seed", "1",
                     "--fusion", fusion]) == 0
        out[f"{fusion} {helpers}"] = [
            hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            hashlib.sha256(Path(f"{ckpt}.log").read_bytes()).hexdigest(),
            pieces["scoring"].count(2), max(pieces["trainer"]), parallel._pool is not None,
        ]
print(json.dumps(out))
"""


def test_training_bytes_do_not_depend_on_the_helper_count(tmp_path):
    runs = run_one_blas_thread(INVARIANCE, tmp_path)
    for fusion in ("global", "global-local"):
        digests = {tuple(runs[f"{fusion} {n}"][:2]) for n in (0, 1, 3)}
        assert len(digests) == 1, fusion
        for n in (0, 1, 3):
            _, _, split_products, step_blocks, pooled = runs[f"{fusion} {n}"]
            assert split_products == 2 * 3  # forward and backward, each epoch
            assert step_blocks > trainer.ADAGRAD_SPLIT_BLOCKS
            assert pooled == (n > 0)


def test_118d_training_makes_no_pool(helpers, monkeypatch):
    helpers(1)
    monkeypatch.setattr(scoring, "ONE_BLAS_THREAD", True)
    rng = np.random.default_rng(0)
    lengths = rng.integers(4, 9, size=40)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    bags = BagSet(
        embeddings=rng.standard_normal((offsets[-1], 118)), offsets=offsets,
        is_positive=np.arange(40) % 3 == 0,
    )
    trainer.train(bags, trainer.TrainConfig(epochs=5, seed=1))
    assert parallel._pool is None


# ---------------------------------------------- eval blocks spread over threads

def frame_manifest(root, lengths, dim=64, corrupt=()):
    """A global-only test split of hand-written PTDF files, video k holding
    lengths[k] segments of two clips (a single clip makes no segment); every
    third video is a theft video. The videos in `corrupt` hold a NaN, which
    `load_manifest` does not read but loading the bag refuses."""
    rng = np.random.default_rng(len(lengths))
    normal = ("Pickup", "Delivery", "Irrelevant")
    videos = []
    for k, n in enumerate(lengths):
        clips = rng.standard_normal((2 * n or 1, dim))
        if k in corrupt:
            clips[-1, -1] = np.nan
        write_feature_file(root / f"v{k}.ptdf", clips)
        record = {"id": f"v{k}", "split": "test", "feature_file": f"v{k}.ptdf",
                  "category": normal[k % 3] if k % 3 else "PackageTheft"}
        if k % 3 == 0:
            record["annotations"] = rng.integers(0, 2, size=n).tolist()
        videos.append(record)
    path = root / "manifest.json"
    path.write_text(json.dumps({
        "name": "frames", "feature_dim": dim, "clip_length": 16, "segment_length": 32,
        "videos": videos,
    }), encoding="utf-8")
    return path


def random_checkpoint(path, dim, fusion):
    save_checkpoint(scoring.init_head(dim, 7), trainer.TrainConfig(seed=7, fusion_mode=fusion),
                    path)
    return path


EVAL_INVARIANCE = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
from ptde import cli, parallel
from ptde.cli import main

spread = []
def counted(pieces, run=cli.run_pieces):
    spread.append(len(pieces))
    return run(pieces)
cli.run_pieces = counted

manifest, ckpt, out = map(Path, sys.argv[1:])
runs = {}
for helpers in (0, 1, 3):
    parallel.HELPERS, parallel._pool = helpers, None
    del spread[:]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 0
        assert main(["roc", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--out-csv", str(out / "roc.csv"), "--out-svg", str(out / "roc.svg")]) == 0
    runs[helpers] = [hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                     hashlib.sha256((out / "roc.csv").read_bytes()).hexdigest(),
                     hashlib.sha256((out / "roc.svg").read_bytes()).hexdigest(),
                     spread, parallel._pool is not None]
print(json.dumps(runs))
"""


def spread_eval_runs(manifest, ckpt, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    runs = run_one_blas_thread(EVAL_INVARIANCE, manifest, ckpt, out)
    assert len({tuple(runs[str(n)][:3]) for n in (0, 1, 3)}) == 1
    for n in (0, 1, 3):
        spread, pooled = runs[str(n)][3:]
        assert len(spread) == 2 and spread[0] > 1  # eval and roc both spread
        assert pooled == (n > 0)
    return runs


def test_eval_and_roc_bytes_do_not_depend_on_the_helper_count_64d(tmp_path):
    """A 64-d global split past the gate (4,096 rows) with 1-row videos,
    videos longer than SCORE_BLOCK_ROWS and videos with no segment."""
    b = cli.SCORE_BLOCK_ROWS
    rng = np.random.default_rng(2)
    lengths = [0, 1, b + 44, 1, 1, 0, b, b + 1, 3, 2 * b] + rng.integers(0, 40, size=170).tolist()
    data = tmp_path / "data"
    data.mkdir()
    manifest = frame_manifest(data, lengths)
    assert sum(lengths) * 64 * scoring.HIDDEN1 >= scoring.SPLIT_MULTIPLY_ADDS
    spread_eval_runs(manifest, random_checkpoint(tmp_path / "m.ckpt", 64, FusionMode.GLOBAL_ONLY),
                     tmp_path)


def test_eval_and_roc_bytes_do_not_depend_on_the_helper_count_4150d(tmp_path):
    """A 4150-d global-local split of 1-9-row videos in two blocks or more."""
    counts = ["--train-theft", "1", "--train-pickup", "1", "--train-delivery", "0",
              "--train-irrelevant", "0", "--test-theft", "24", "--test-pickup", "12",
              "--test-delivery", "12", "--test-irrelevant", "12"]
    assert main(["synth", "--out-dir", str(tmp_path / "data"), "--seed", "5", "--dim", "4096",
                 "--segments-min", "1", "--segments-max", "9", *counts]) == 0
    manifest = tmp_path / "data" / "manifest.json"
    rows = [rec.num_segments for rec in load_manifest(manifest).split_records("test")]
    assert 1 in rows and sum(rows) > cli.SCORE_BLOCK_ROWS
    ckpt = random_checkpoint(tmp_path / "m.ckpt", 4150, FusionMode.GLOBAL_LOCAL_CONCAT)
    spread_eval_runs(manifest, ckpt, tmp_path)


def test_118d_eval_makes_no_pool(helpers, tmp_path, capsys):
    helpers(1)
    assert main(["synth", "--out-dir", str(tmp_path / "data"), "--seed", "3"]) == 0
    manifest = tmp_path / "data" / "manifest.json"
    rows = sum(rec.num_segments for rec in load_manifest(manifest).split_records("test"))
    assert cli.SCORE_BLOCK_ROWS < rows and rows * 118 * scoring.HIDDEN1 < scoring.SPLIT_MULTIPLY_ADDS
    ckpt = random_checkpoint(tmp_path / "m.ckpt", 118, FusionMode.GLOBAL_LOCAL_CONCAT)
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 0
    assert main(["roc", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                 "--out-csv", str(tmp_path / "roc.csv")]) == 0
    assert parallel._pool is None


@pytest.mark.parametrize("n", [0, 1])
def test_spread_eval_names_the_first_corrupt_block(helpers, tmp_path, capsys, n):
    """Blocks of 8 30-row videos; video 7 ends block 0 and video 8 starts
    block 1, so with a helper both fail at about the same time."""
    helpers(n)
    manifest = frame_manifest(tmp_path, [30] * 200, corrupt=(7, 8, 150))
    ckpt = random_checkpoint(tmp_path / "m.ckpt", 64, FusionMode.GLOBAL_ONLY)
    for _ in range(5):
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'v7.ptdf'}: non-finite feature values\n"
    assert (parallel._pool is not None) == (n > 0)


@pytest.mark.parametrize("test_theft, spreads", [(60, True), (1, False)])
def test_checkpoint_wider_than_the_manifest_exits_2(helpers, tmp_path, capsys, test_theft,
                                                    spreads):
    """A 4150-d head on 118-d bags: the block buffer has the manifest's
    width, so `score_segments` names both widths. 61 videos of 4-8 rows
    make two blocks or more, past the gate at the head's width (64 rows);
    2 videos make one."""
    helpers(1)
    counts = ["--test-theft", str(test_theft), "--test-pickup", "1", "--test-delivery", "0",
              "--test-irrelevant", "0"]
    assert main(["synth", "--out-dir", str(tmp_path / "data"), "--seed", "3", *counts]) == 0
    manifest = tmp_path / "data" / "manifest.json"
    ckpt = random_checkpoint(tmp_path / "m.ckpt", 4150, FusionMode.GLOBAL_LOCAL_CONCAT)
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == (
        "error: segment bag has embedding dimension 118, head expects 4150\n"
    )
    assert (parallel._pool is not None) == spreads
