"""Host speed, sampled while the benchmark works.

The benchmark runs on shared virtual machines whose neighbours slow this
process's CPU itself, by 1.5x to 3x, in phases of seconds to minutes.  The
CPU clock does not exclude that: it is the same code taking longer.  A run
that falls in a slow phase would read as a regression.

:data:`SPEED` runs a fixed kernel from a timer signal every ``PERIOD_S``
and records the kernel's CPU time.  The kernel's time over an interval,
divided by ``REFERENCE_S``, is the host's slowdown over that interval; a
measured time divided by it is the time the work takes on an undisturbed
host.  The kernel is a loop of small-array numpy calls, the mix of
interpreter and library work the workloads spend most of their time on.
It slows by about the same factor as sweep-model and paper-cold do;
service-mix, which also spends time in system calls, it tracks less
closely.  The kernel's own CPU time is subtracted from the times it
interrupts.

The kernel is part of the benchmark and must not change between the
commits a comparison measures.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

__all__ = ["HostSpeed", "SPEED"]

#: Seconds between kernel samples.
PERIOD_S = 0.05
#: The kernel's CPU time on an undisturbed host (a 2-vCPU Intel Xeon VM
#: in a quiet phase).  It only sets the scale of the normalized times.
REFERENCE_S = 0.0007
#: An interval with fewer samples than this is judged by the samples of
#: the last second before it ended.
MIN_SAMPLES = 20

_A = np.linspace(1.0, 2.0, 512)
_B = _A[::-1].copy()


def kernel() -> float:
    """About a millisecond of small-array numpy calls."""
    total = 0.0
    for _ in range(80):
        total += np.log2(np.maximum(_A * _B + 1.0, 0.5)).sum()
    return total


class HostSpeed:
    """Kernel samples taken on a timer while :meth:`start` is in force."""

    def __init__(self) -> None:
        self.samples: List[float] = []   # kernel CPU seconds, in order
        self.spent_s = 0.0               # CPU time spent sampling
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.thread_time()
            kernel()
            took = time.thread_time() - start
            self.samples.append(took)
            self.spent_s += took
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Tuple[int, float]:
        """The start of an interval, for :meth:`spent_since` and
        :meth:`slowdown`."""
        return len(self.samples), self.spent_s

    def spent_since(self, mark: Tuple[int, float]) -> float:
        """CPU seconds the kernel took since *mark*."""
        return self.spent_s - mark[1]

    def slowdown(self, mark: Tuple[int, float]) -> float:
        """The host's slowdown from *mark* until now (1.0 unsampled).

        The median kernel sample of the interval, or of the last
        ``MIN_SAMPLES`` samples if the interval holds fewer, over
        ``REFERENCE_S``.
        """
        first = min(mark[0], len(self.samples) - MIN_SAMPLES)
        window = self.samples[max(0, first):]
        if not window:
            return 1.0
        return statistics.median(window) / REFERENCE_S


#: The process's sampler; ``unit.py`` starts it before anything is timed.
SPEED = HostSpeed()
