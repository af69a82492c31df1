"""Host speed, sampled while a batch workload runs.

A shared virtual machine runs the same code up to twice as fast or slow
from one ten-second stretch to the next, as other guests come and go,
and steal time does not account for it (process CPU time slows as much
as wall time).  So while a unit runs, a timer interrupts it every
``PERIOD_S`` and times a fixed pure-Python kernel.  The kernel's median
time over a unit (or an op), divided by ``NOMINAL_S``, is how much
slower than the reference speed the host ran; rates are multiplied by it
and times divided by it, which reports them at the reference speed.  The samples'
own time is left out of what is timed: :meth:`HostSpeed.clock` stops
while the kernel runs.

The kernel is part of the benchmark, not of the program: a change to
the program moves the workload's timings and never the kernel's, so the
scaled figures move by what the change saved or cost.  On a 2-vCPU host,
in a noisy stretch, this cut the quartile spread of 10 s units over
their median from 0.12-0.17 to 0.05-0.07; in a quiet stretch, when the
host barely moved, it added a few hundredths instead.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples; the kernel takes about 1.4% of that.
PERIOD_S = 0.02

#: Kernel iterations per sample (~0.28 ms at the reference speed).
ITERATIONS = 3000

#: The kernel's median time at the reference speed, in seconds: its
#: typical time on the 2-vCPU host this benchmark was defined on.
NOMINAL_S = 2.8e-4


def kernel() -> int:
    """The fixed work that is timed: integer arithmetic in a loop."""
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return acc


class HostSpeed:
    """Collects kernel times from a SIGALRM interval timer.

    The timer belongs to one process: a forked child inherits the
    handler but not the timer, so a child that does the work starts its
    own.
    """

    def __init__(self) -> None:
        #: (``clock()`` when taken, kernel seconds) per sample
        self.samples: list[tuple[float, float]] = []
        #: seconds spent in samples so far
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0 - self.spent, time.perf_counter() - t0))
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in samples."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample landed in between
                return now - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self) -> list[tuple[float, float]]:
        """The samples so far, emptying the list."""
        out, self.samples = self.samples, []
        return out


def slowdown(samples, start: float | None = None,
             end: float | None = None) -> float:
    """How many times slower than the reference speed the host ran
    while ``samples`` were taken -- those between ``start`` and ``end``
    (clock times) when given and any were -- or 1.0 with no samples."""
    if start is not None:
        inside = [s for s in samples if start <= s[0] <= end]
        samples = inside or samples
    if not samples:
        return 1.0
    return statistics.median(s[1] for s in samples) / NOMINAL_S
