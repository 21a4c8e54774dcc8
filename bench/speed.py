"""Host CPU speed sampling, for times that survive a noisy shared machine.

On a shared machine the speed of the same code swings by up to 2x over
seconds, and a whole run can sit in a slow spell.  `SpeedSampler` runs a
~2 ms probe (fixed interpreter, bigint and FFT work) from a SIGALRM handler
every `INTERVAL` seconds of wall time, also in the middle of long ops.  A
timed interval is then normalized by the median probe time around it:

    normalized = (elapsed - time spent in probes) * NOMINAL_S / median probe

so a value reads as seconds at the speed where the probe takes NOMINAL_S
(its median on a 2-vCPU x86-64 virtual machine).  The handler runs
between Python bytecodes of the main thread only; no thread is started.
The probe works in the private caches, so it tracks contention for the
core, not for the shared cache or memory: short ops on large sets keep
some of the host's noise.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0013
INTERVAL = 0.1
WINDOW = 0.5  # probes this close to an interval's ends also count for it

_FFT_INPUT = np.linspace(0.0, 1.0, 1 << 13)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter, bigint and FFT work."""
    t0 = perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    x = (1 << 40000) - 1
    for _ in range(150):
        x ^= x >> 7
    for _ in range(2):
        np.fft.irfft(np.fft.rfft(_FFT_INPUT))
    return perf_counter() - t0


class SpeedSampler:
    """Context manager that probes the CPU speed on a wall-clock timer."""

    def __init__(self):
        self.at = array("d")       # perf_counter() when each probe started
        self.took = array("d")     # probe durations
        self.in_probes = 0.0       # total wall time spent in the handler
        self._previous = None
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:  # a probe slower than INTERVAL: skip, never nest
            return
        self._busy = True
        t0 = perf_counter()
        d = probe()
        self.at.append(t0)
        self.took.append(d)
        self.in_probes += perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def mark(self) -> tuple[float, float]:
        return perf_counter(), self.in_probes

    def elapsed(self, start: tuple[float, float]) -> tuple[float, float, float]:
        """(start time, end time, seconds since `start` outside probes)."""
        t1, p1 = self.mark()
        return start[0], t1, (t1 - start[0]) - (p1 - start[1])

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median probe time within WINDOW of [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t1 + WINDOW)
        if lo == hi:  # no probe near: take the nearest one
            i = min(max(lo, 1), len(self.at)) - 1
            lo, hi = i, i + 1
        return NOMINAL_S / statistics.median(self.took[lo:hi])
