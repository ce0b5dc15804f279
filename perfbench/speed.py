"""CPU time converted to time at a fixed reference speed.

On a shared host the same instructions run at different speeds from one
second to the next: another tenant on the sibling hyperthread changes the
speed of a vCPU by up to about twice, over stretches of a fraction of a
second to several seconds.  Wall time and CPU time both carry that, so two
runs of the same code can differ by a third.

While the program runs, ``Speedometer`` interrupts it every ``INTERVAL_S``
of CPU time (``SIGPROF``) and times a fixed reference loop of interpreted
integer and ``Fraction`` arithmetic.  ``ref_seconds`` converts a stretch of
the program's CPU time to the time it would take at the speed at which the
reference loop takes ``REF_NOMINAL_S``, using the speed measured next to
that stretch.  The reference loops' own CPU time is left out.

All clocks are the calling thread's CPU time: the program computes in one
thread, and the process CPU clock is too coarse on some virtual machines to
time a reference loop.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

INTERVAL_S = 0.02
REF_NOMINAL_S = 0.00015
SMOOTH = 2  # a mark's speed is the median of the reference times within 2 marks

_FRACTIONS = [Fraction(i, i + 7) for i in range(1, 21)]


def _reference() -> Fraction:
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    total = Fraction(acc % 5)
    for x in _FRACTIONS:
        total += x * x
    return total


class Speedometer:
    """Samples the reference speed while the calling thread runs."""

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float]] = []  # (clock at start, reference time)
        self._clocks: List[float] = []
        self._totals: List[float] = []
        self._speeds: List[float] = []
        self._sampling = False

    def _tick(self, signum, frame) -> None:
        if self._sampling:  # a timer signal that arrives during a sample
            return
        self._sampling = True
        c0 = time.thread_time()
        _reference()
        self.marks.append((c0, time.thread_time() - c0))
        self._sampling = False

    def start(self) -> None:
        _reference()
        self._tick(None, None)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling and build the clock-to-reference-time table."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._tick(None, None)
        self._build()

    def _build(self) -> None:
        refs = [r for _, r in self.marks]
        self._speeds = [
            statistics.median(refs[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(refs))
        ]
        # reference time accrues between marks and stands still during them
        total = 0.0
        for i, (c0, r) in enumerate(self.marks):
            if i:
                gap = c0 - self._clocks[-1]
                pace = (self._speeds[i - 1] + self._speeds[i]) / 2
                total += gap * REF_NOMINAL_S / pace
            self._clocks += [c0, c0 + r]
            self._totals += [total, total]

    def _cumulative(self, clock: float) -> float:
        clocks, totals = self._clocks, self._totals
        j = bisect.bisect_right(clocks, clock)
        if j == 0:
            return (clock - clocks[0]) * REF_NOMINAL_S / self._speeds[0]
        if j == len(clocks):
            return totals[-1] + (clock - clocks[-1]) * REF_NOMINAL_S / self._speeds[-1]
        c0, c1 = clocks[j - 1], clocks[j]
        return totals[j - 1] + (totals[j] - totals[j - 1]) * (clock - c0) / (c1 - c0)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference time of the thread-clock interval ``[start, end]``."""
        return self._cumulative(end) - self._cumulative(start)
