"""Host-speed calibration for the timings the benchmark reports.

On shared virtual machines the CPU changes speed by 30-90 % within seconds,
and within a single 200 ms query, in CPU time as much as in wall time,
whatever the code does.  A fixed pure-Python kernel (Fraction arithmetic and
dict updates, the same kind of work pathcoalg does, but none of its code)
measures the host's slowness: the kernel's time over NOMINAL_S.  `Meter`
times the kernel every PERIOD_S from a SIGALRM handler and divides each
stretch of raw time by the slowness around it.  Reported timings are
therefore seconds on a host where the kernel takes NOMINAL_S.  A change to
pathcoalg moves them; a change in host speed largely cancels.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.00075  # kernel time that defines the reference host speed
PERIOD_S = 0.01  # calibration interval of a running Meter

_ZERO = Fraction(0)


def kernel():
    acc = {}
    for i in range(1, 125):
        key = (i % 17, i % 5)
        value = acc.get(key, _ZERO) + Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 3 + 1, 2)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    return acc


def slowness(repeats=1):
    """How many times slower than the reference host this host runs now
    (median of `repeats` kernel runs)."""
    enabled = gc.isenabled()
    gc.disable()  # the library's garbage must not be collected inside the kernel
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2] / NOMINAL_S


class Meter:
    """A clock that runs at reference-host speed.

    Every PERIOD_S a SIGALRM handler times the kernel.  Raw time between two
    calibrations is divided by their mean slowness; a `read` closes the
    current stretch with the latest slowness.  Time spent in the handler is
    not counted.  Only one Meter may run in a process."""

    def __init__(self):
        self.slow = slowness()
        self.samples = [self.slow]
        self.raw = 0.0
        self.normalized = 0.0
        self._busy = False
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _add(self, end, factor):
        stretch = end - self._mark
        self.raw += stretch
        self.normalized += stretch / factor

    def _tick(self, signum, frame):
        if self._busy:  # a read is in progress; skip this calibration
            return
        self._busy = True
        end = time.perf_counter()
        slow = slowness()
        self._add(end, (self.slow + slow) / 2)
        self.slow = slow
        self.samples.append(slow)
        self._mark = time.perf_counter()  # the kernel run is not counted
        self._busy = False

    def read(self):
        """(raw, normalized) seconds measured since the meter started."""
        self._busy = True
        now = time.perf_counter()
        self._add(now, self.slow)
        self._mark = now
        self._busy = False
        return self.raw, self.normalized

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.read()
