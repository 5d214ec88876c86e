"""Program time in reference-host seconds.

On the 2-vCPU host the benchmark was written on, the same work took 20-50 %
longer in one run than in another, for two reasons a run of tens of
seconds cannot average out:

- the hypervisor takes the vCPU away now and then (steal time: up to a
  tenth of a 5-s unit), which wall time counts and the process's CPU time
  does not;
- while it runs, the vCPU is faster or slower in spells that last from
  under a second to minutes.

The end-to-end timings therefore take, for each interval they time, the
smaller of its wall time and the process's CPU time (all threads), so that
steal drops out of a single-threaded program while several busy threads
would still show as a shorter wall time.  They then scale that by the
vCPU's speed, measured while the program runs:

- While a `HostClock` is running, a SIGALRM timer interrupts the program
  every `PERIOD_S` and runs one reference slice: a fixed mix of small numpy
  products and dict work, like the program's own.  Python runs the handler
  between two bytecodes of the main thread, so the slices sample the
  program's run evenly in time.  Their wall and CPU time are kept out of
  the program's.
- `factor(mark)` is `NOMINAL_SLICE_S` over the trimmed mean of the slices'
  CPU times since `mark`.  A time multiplied by it is in seconds of the
  reference host, one that runs a slice in `NOMINAL_SLICE_S`.

The reference slice is part of the benchmark and never changes with the
program, so a faster program reads faster on any host.  The record of a run
keeps the raw wall times and the factors beside the scaled metrics.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
# The median slice on the 2-vCPU host the benchmark was written on.
NOMINAL_SLICE_S = 0.0004
# Share of the slices dropped at each end before the mean: a slice that the
# host slowed by a rare event (an interrupt, a cache flush) says nothing of
# the vCPU's speed.
TRIM = 0.1
MIN_SLICES = 9

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 16))
_W0 = _rng.standard_normal((16, 16)) * 0.1


def reference_slice() -> int:
    w = _W0.copy()
    acc = 0
    for i in range(25):
        h = np.maximum(_A @ w, 0.0)
        w -= 1e-6 * (_A.T @ h)
        d = {}
        for j in range(40):
            d[j] = j * 2 + i
            acc += d[j] % 7
    return acc


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class HostClock:
    """Reference slices interleaved with the program; see the module doc."""

    def __init__(self):
        self.slices: list[float] = []     # CPU seconds of each slice
        self.slice_wall = 0.0
        self.slice_cpu = 0.0
        self._busy = False
        self._previous = None

    def _slice(self, *_):
        if self._busy:   # a signal that came during a slice is dropped
            return
        self._busy = True
        wall, cpu = time.perf_counter(), time.process_time()
        reference_slice()
        cpu = time.process_time() - cpu
        self.slice_wall += time.perf_counter() - wall
        self.slice_cpu += cpu
        self.slices.append(cpu)
        self._busy = False

    def now(self) -> tuple[float, float]:
        """(wall, CPU) seconds outside the slices.  A slice can run between
        any two bytecodes; the read is retried if one ran during it."""
        while True:
            n = len(self.slices)
            value = (time.perf_counter() - self.slice_wall,
                     time.process_time() - self.slice_cpu)
            if len(self.slices) == n:
                return value

    def since(self, start: tuple[float, float]) -> float:
        """Program seconds since `start`: the smaller of wall and CPU time."""
        wall, cpu = self.now()
        return min(wall - start[0], cpu - start[1])

    def mark(self) -> int:
        return len(self.slices)

    def factor(self, mark: int) -> float:
        """Reference-host seconds per program second since `mark`; takes
        slices now if the interval was too short to hold enough."""
        while len(self.slices) - mark < MIN_SLICES:
            self._slice()
        return NOMINAL_SLICE_S / trimmed_mean(self.slices[mark:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class WallClock:
    """Raw wall time, unscaled: the clock of the traced run, whose spans
    must not hold reference slices."""

    now = staticmethod(time.perf_counter)

    def since(self, start: float) -> float:
        return time.perf_counter() - start

    def mark(self) -> int:
        return 0

    def factor(self, mark: int) -> float:
        return 1.0
