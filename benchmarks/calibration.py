"""Scaling of timed samples by the speed of the host.

The host's speed changes from one second to the next on a shared machine:
the same pure-Python loop can take twice as long.  So while a run is
measured, a timer signal runs a short calibration loop every INTERVAL_S,
and each timed sample is scaled by NOMINAL_S over the loop's mean time
around that sample.  The loop's own time is taken out of the sample.  A
loop of indexing, dict lookups, calls and bit operations tracks the
program's slowdowns better than a bare counter.  NOMINAL_S is the loop's
median time on the 2-vCPU machine the baseline was recorded on, so a
scaled second is close to a second there.  This module imports nothing
from balisim.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

CALIBRATION_ROUNDS = 10_000
NOMINAL_S = 0.0017
INTERVAL_S = 0.05
_TABLE = list(range(64))
_INDEX = {i: 3 * i for i in range(64)}


def _step(x: int) -> int:
    return (x + 1) & 0xFFFF


def calibration_s() -> float:
    """Time of one run of the calibration loop, in host seconds."""
    t0 = perf_counter()
    acc, table, index = 0, _TABLE, _INDEX
    for i in range(CALIBRATION_ROUNDS):
        acc ^= table[i & 63] + index[i & 63]
        acc = _step(acc)
    return perf_counter() - t0


def scale(*calibrations: float) -> float:
    """Factor from host seconds to scaled seconds."""
    return NOMINAL_S / statistics.fmean(calibrations)


class SpeedClock:
    """Runs the calibration loop every INTERVAL_S of wall time while open.

    `spent` is the host time the loop has taken so far; a timed sample
    subtracts the part of it that fell inside the sample.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _calibrate(self, *_) -> None:
        if self._busy:  # the timer fired during a stalled calibration
            return
        self._busy = True
        t0 = perf_counter()
        self.durations.append(calibration_s())
        self.times.append(t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()

    def scale(self, start: float, end: float) -> float:
        """Factor for a sample taken from `start` to `end`: the mean of the
        calibrations within INTERVAL_S of it, or else the nearest one."""
        lo = bisect.bisect_left(self.times, start - INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + INTERVAL_S)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
            nearest = min(near, key=lambda i: abs(self.times[i] - start))
            return scale(self.durations[nearest])
        return scale(*self.durations[lo:hi])
