"""Sampling of the CPU speed a workload process gets, next to its own work.

The virtual CPUs of a shared sandbox switch between a fast and a slow state,
about 2x apart, every second or so, and the share of fast time in a run
varies from run to run. A timer signal interrupts the process every
``INTERVAL_S`` to time a fixed loop of small numpy products and float math
that shares no code with ksub. A span of work is then reported in seconds at
the reference speed, where the loop takes ``REFERENCE_S``:

    scaled = (wall - time spent sampling) * mean(REFERENCE_S / loop time)

with the mean taken over the samples that fell within ``INTERVAL_S`` of the
span. Samples come at even intervals of wall time, so the mean of the speeds
(not of the loop times) is the speed averaged over the span. ``start`` and
``sample`` also take one sample at once, so a span shorter than
``INTERVAL_S`` (a fast set-up, say) still has one. Sampling costs about 1 %
of the process's time.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.1
STEPS = 250
REFERENCE_S = 1.25e-3      # loop time in the slow state of a 2-core sandbox


def _loop() -> float:
    total = 0.0
    eye = np.eye(2)
    for i in range(STEPS):
        v = np.array((i * 0.5, 1.0))
        total += float(v @ eye @ v) + math.sqrt(i)
    return total


class SpeedSampler:
    """Times the fixed loop from a SIGALRM handler while it is started."""

    def __init__(self):
        self.at = array("d")       # perf_counter at each sample
        self.loop_s = array("d")   # loop time of each sample
        self.busy_s = 0.0          # total time spent sampling

    def _on_alarm(self, signum, frame) -> None:
        self._take()

    def _take(self) -> None:
        start = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - start
        self.at.append(start)
        self.loop_s.append(elapsed)
        self.busy_s += elapsed

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def sample(self) -> None:
        """Take one sample now; the timer cannot interleave one with it."""
        blocked = {signal.SIGALRM}
        signal.pthread_sigmask(signal.SIG_BLOCK, blocked)
        try:
            self._take()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, blocked)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, of samples near [start, end]."""
        if not self.at:
            raise RuntimeError("no speed sample taken: call start() first")
        lo = bisect.bisect_left(self.at, start - INTERVAL_S)
        hi = bisect.bisect_right(self.at, end + INTERVAL_S)
        if lo == hi:   # no sample in the window: take the nearest one
            if lo == len(self.at) or (
                    lo > 0 and start - self.at[lo - 1] < self.at[lo] - end):
                lo -= 1
            hi = lo + 1
        window = self.loop_s[lo:hi]
        return sum(REFERENCE_S / t for t in window) / len(window)
