"""Speed probe: how fast this core runs Python while a task runs.

The benchmark gets a few cores of a host it shares with other tenants.  Their
load comes in episodes of one to a few seconds that slow this process by up to
about 1.7 times, and its level shifts over minutes, so wall times of the same
code on the same input spread by up to a third from one run to the next.  The
probe times a fixed integer loop every 5 ms from a SIGALRM handler, inside the
measured process, and turns each timing into the speed of the core at that
moment: NOMINAL_S divided by the loop's time, at most 1.  A task's time at
nominal speed is its wall time times the mean speed sampled while it ran.

The loop is the benchmark's own code, so no change to flatcover moves it; it
takes about 0.3 % of the time it watches.
"""
from __future__ import annotations

import signal
import time
from array import array
from statistics import fmean

#: the loop's time on an uncontended core of the host the bounds were set on
#: (2.1 GHz Xeon, CPython 3.11); on a faster core every sample reads 1
NOMINAL_S = 13.0e-6
INTERVAL_S = 0.005


def _loop() -> int:
    x = 0
    for i in range(300):
        x += i * i
    return x


class SpeedProbe:
    """Samples the core's speed every INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.speeds = array("d")
        self._handler = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _loop()
        self.speeds.append(min(NOMINAL_S / (time.perf_counter() - t0), 1.0))

    def start(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def mark(self) -> int:
        return len(self.speeds)

    def speed_since(self, mark: int) -> float:
        """Mean speed sampled since `mark`; the latest sample if none was
        taken since (a task shorter than the interval), 1 if none at all."""
        if len(self.speeds) > mark:
            return fmean(self.speeds[mark:])
        return self.speeds[-1] if self.speeds else 1.0
