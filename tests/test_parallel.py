"""ptde.parallel, and the training work spread over it.

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
from ptde import parallel, scoring, trainer
from ptde.data import BagSet
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
