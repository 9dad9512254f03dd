"""Time a block of code at a fixed reference speed of the machine.

On a shared virtual machine the processor's speed is not constant: as other
tenants load the host, the same code can run up to 1.8x slower, in spells
that last from a second to minutes. A wall time then says as much about the
neighbours as about the program. A SpeedProbe corrects for that. While a
block runs, a SIGALRM interval timer interrupts it every TICK_S of wall time
and runs a fixed piece of probe work of the benchmark's own, two parts of
about half a millisecond each:

- an interpreter part, a Python dict loop, which slows as much as the
  interpreter-bound code of ptde (bag assembly, pose parsing, the trainer's
  small array calls; about 1.7x in a slow spell);
- a BLAS part, one float64 matrix product, which slows as much as ptde's
  wide matrix products (about 1.3x).

The block's `seconds` is its wall time less the time spent in the probe,
divided by the machine's mean slowness over the block: PROBE_WEIGHT times
the interpreter part's mean over REF_PY_S, plus the rest times the BLAS
part's mean over REF_BLAS_S. That is how long the block would have taken at
the reference speed, where the two parts take REF_PY_S and REF_BLAS_S. A
change to ptde moves `seconds` as it moves the wall time; a change in the
machine's speed mostly cancels.

The handler runs in the main thread between bytecodes, never inside numpy's
C code, and touches nothing of ptde's. Signals only reach the main thread,
so `timing()` must be used there.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TICK_S = 0.05
# the probe parts' durations at the reference speed, and the interpreter
# part's share of the slowness estimate (the rest is the BLAS part's)
REF_PY_S = 0.0004
REF_BLAS_S = 0.0005
PROBE_WEIGHT = 0.75
PY_LOOP = 3000


@dataclass
class Timing:
    """A timed block: filled in when the block ends."""

    wall: float = 0.0  # wall time, probe included
    work: float = 0.0  # wall time less the time spent in the probe
    seconds: float = 0.0  # work at the reference speed
    samples: list = field(default_factory=list)  # (interpreter s, BLAS s) per probe


class SpeedProbe:
    """Times blocks at the reference speed (see the module docstring)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 4150))
        self._b = rng.standard_normal((4150, 64))

    def sample(self) -> tuple[float, float]:
        """Run the probe work once: (interpreter part s, BLAS part s)."""
        t0 = time.perf_counter()
        d = {}
        for i in range(PY_LOOP):
            d[i % 97] = d.get(i % 97, 0) + i
        t1 = time.perf_counter()
        self._a @ self._b
        return t1 - t0, time.perf_counter() - t1

    @staticmethod
    def slowness(samples) -> float:
        """The machine's mean slowness over the samples; 1.0 at the reference speed."""
        py = statistics.fmean(s[0] for s in samples)
        blas = statistics.fmean(s[1] for s in samples)
        return PROBE_WEIGHT * py / REF_PY_S + (1 - PROBE_WEIGHT) * blas / REF_BLAS_S

    @contextmanager
    def timing(self):
        """Time the block; yields a Timing that is filled in when it ends.

        One probe sample is taken before the clock starts, so even a block
        shorter than a tick has one; the ones taken inside count as probe time.
        """
        timing = Timing(samples=[self.sample()])
        inside = []

        def on_tick(signum, frame):
            inside.append(self.sample())

        previous = signal.signal(signal.SIGALRM, on_tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            timing.wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        timing.samples += inside
        timing.work = timing.wall - sum(py + blas for py, blas in inside)
        timing.seconds = timing.work / self.slowness(timing.samples)
