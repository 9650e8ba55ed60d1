"""Host-speed calibration: timings in nominal-host seconds.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by up to 2x over tens of seconds, which
moves every raw timing of a repetition by the same factor.  A fixed
calibration kernel -- interpreter work plus small numpy products, the mix
the workloads spend their time in -- is timed alongside the workload, and
each timing is divided by the kernel's slowdown against ``NOMINAL_S``.
A normalised time reads as seconds on a host where the kernel takes
``NOMINAL_S``; the raw times are reported next to them.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import List, Tuple

import numpy as np

__all__ = ["SpeedProbe", "NOMINAL_S"]

#: kernel duration on the nominal host (a quiet phase of a 2-vCPU Xeon)
NOMINAL_S = 1.6e-4
#: period of the background samples taken during batch workloads
INTERVAL_S = 0.02


class SpeedProbe:
    """Times the calibration kernel; slowdowns are relative to nominal."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((32, 32))
        self._vector = rng.random((32, 1))
        #: ``(time, kernel seconds)`` of each background sample
        self._periodic: List[Tuple[float, float]] = []
        self._busy = False

    def _kernel(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(2000):
            total += i * i
        for _ in range(20):
            self._matrix @ self._vector
        return perf_counter() - start

    def sample(self) -> float:
        """Slowdown of one kernel run against the nominal host."""
        return self._kernel() / NOMINAL_S

    def burst(self, n: int = 15) -> float:
        """Median slowdown of *n* back-to-back kernel runs."""
        return statistics.median(self.sample() for _ in range(n))

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` (SIGALRM) until :meth:`stop`."""
        self._periodic = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._periodic.append((perf_counter(), self._kernel()))
        finally:
            self._busy = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if len(self._periodic) < 3:
            self._periodic += [(perf_counter(), self._kernel())
                               for _ in range(15)]

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the background samples taken in [start, end]
        (of all of them, when fewer than three fall inside).

        Samples are evenly spaced in time, so their mean weights each
        stretch of the interval by its length.  A sample stretched past
        three times the median (a preemption, not a host speed) is clipped.
        """
        inside = [d for t, d in self._periodic if start <= t <= end]
        samples = inside if len(inside) >= 3 else [d for _, d in
                                                   self._periodic]
        cap = 3.0 * statistics.median(samples)
        return statistics.fmean(min(d, cap) for d in samples) / NOMINAL_S
