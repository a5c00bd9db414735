"""Machine-speed reference, so that times from a shared host compare.

On a host shared with other tenants the speed of the same core changes by a
factor of two or more within seconds, and CPU time follows wall time, so it is
the core itself that slows down, not the scheduler.  The benchmark therefore
times a fixed pure-Python reference kernel while it runs, and scales every
case's time by ``REFERENCE_S / mean kernel time`` over the kernel samples
taken during the case (and ``WINDOW_S`` either side): a value reads as the
time the case would take on a machine where the kernel takes ``REFERENCE_S``.  The
kernel is the benchmark's own code, so no change to the package can move it.

``SpeedProbe`` samples the kernel every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, which runs between bytecodes of the main thread; so the
samples also cover the inside of long library calls.  The time spent in the
kernel is subtracted from the case it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REFERENCE_S = 1e-3
INTERVAL_S = 0.1
WINDOW_S = 0.25
SETUP_SAMPLES = 25


def reference_work():
    """A fixed mix of the work the package does: tuple composition, dict
    lookups of tuples, small-object creation and Fraction arithmetic."""
    d = 48
    f = tuple((7 * j + 3) % d + 1 for j in range(d))
    p, seen = f, {}
    for k in range(75):
        p = tuple(p[r - 1] for r in f)
        seen[p] = k
    acc = Fraction(0)
    for k in range(1, 275):
        acc += Fraction(k, 997 + k)
    return len(seen), acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Multiplier that scales a time measured alongside ``samples`` to the
    reference speed."""
    return REFERENCE_S / statistics.fmean(samples)


class SpeedProbe:
    """Reference-kernel samples taken every ``INTERVAL_S`` while running."""

    def __init__(self):
        self.samples: list[float] = []  # kernel times
        self.at: list[float] = []  # perf_counter at the start of each sample
        self.spent = 0.0  # seconds spent in the kernel so far
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a tick that arrives during a tick is dropped
            return
        self._busy = True
        try:
            self.at.append(time.perf_counter())
            dt = time_reference()
            self.samples.append(dt)
            self.spent += dt
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factor(self) -> float:
        return factor(self.samples)

    def local_factor(self, start: float, end: float) -> float:
        """Factor from the samples taken between ``start - WINDOW_S`` and
        ``end + WINDOW_S`` (perf_counter readings), or the nearest one."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = min(lo, len(self.at) - 1), min(lo, len(self.at) - 1) + 1
        return factor(self.samples[lo:hi])
