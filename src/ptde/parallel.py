"""Run independent pieces of work on the calling thread and helper threads.

`run_pieces` hands a list of zero-argument callables to the calling thread
and to up to HELPERS threads of one lazily made pool (one per further core,
when BLAS runs one thread; else none). Each thread claims the
next unclaimed piece in index order until none is left. The results come
back in input order, so a caller that cuts its work by array shape alone
gets the same results for any number of helpers, none included. numpy
releases the GIL inside its BLAS calls and ufunc loops, which is where the
helpers earn their keep.

Training spreads layer 1's two products and the Adagrad blocks over it
(`ptde.scoring`, `ptde.trainer`); `ptde eval` and `ptde roc` spread their
blocks of whole test videos, each loaded and scored by one piece
(`ptde.cli.scored_test_segments`).
"""

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Whether the environment limits OpenBLAS to one thread (the first of these
# variables that is set decides).
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
ONE_BLAS_THREAD = next(filter(None, (os.environ.get(v, "").strip() for v in _BLAS_VARS)), "") == "1"
# The cores this process may run on, less the calling thread's. With more
# BLAS threads, OpenBLAS's own threads use the other cores, and a helper
# beside them made a 4150-d epoch no faster, so none is used.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
HELPERS = _CORES - 1 if ONE_BLAS_THREAD else 0

_pool = None
_local = threading.local()


class _Job:
    """One `run_pieces` call: its pieces, their results and errors, and the
    counter the threads claim piece indices from."""

    def __init__(self, pieces):
        self.pieces = pieces
        self.results = [None] * len(pieces)
        self.errors = {}
        self.stop = False
        self._claims = itertools.count()  # next() is atomic under the GIL

    def work(self) -> None:
        """Claim and run pieces until none is left or any piece has failed."""
        _local.inside = True
        try:
            for i in self._claims:
                if self.stop or i >= len(self.pieces):
                    return
                try:
                    self.results[i] = self.pieces[i]()
                except Exception as exc:
                    self.errors[i] = exc
                    self.stop = True
        except BaseException:
            self.stop = True
            raise
        finally:
            _local.inside = False


def run_pieces(pieces) -> list:
    """The results of `pieces`, in order.

    If pieces fail, no piece is claimed after the first failure and the
    exception of the lowest failing index is raised; since pieces are
    claimed in index order, that is the one a serial loop would raise. An
    exception or KeyboardInterrupt in the calling thread stops the helpers
    from claiming more, and is raised once their running pieces end. A call
    made from inside a piece runs its pieces inline.
    """
    global _pool
    pieces = list(pieces)
    helpers = min(HELPERS, len(pieces) - 1)
    if helpers < 1 or getattr(_local, "inside", False):
        return [piece() for piece in pieces]
    if _pool is None:
        _pool = ThreadPoolExecutor(HELPERS, thread_name_prefix="ptde-helper")
    job = _Job(pieces)
    futures = [_pool.submit(job.work) for _ in range(helpers)]
    try:
        job.work()
    finally:
        job.stop = True
        running = [f for f in futures if not f.cancel()]
        wait(running)
    if job.errors:
        raise job.errors[min(job.errors)]
    for f in running:  # a BaseException that left a helper's loop
        if f.exception() is not None:
            raise f.exception()
    return job.results
