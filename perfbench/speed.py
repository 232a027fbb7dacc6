"""Machine-speed probe: timings normalised to a reference speed.

The benchmark runs on shared hosts whose speed drifts: on the 2-vCPU
machine it was tuned on, a fixed simulator cell took anywhere from 1x
to 2x its quiet time within one minute.  Run-to-run spread from that
drift swamps the differences a benchmark must resolve.

While a probe is active, a timer signal runs a fixed pure-Python loop
every ``period`` seconds (about 1 ms of every 100 ms).  The loop's
duration tracks the host's current speed, so an interval ``[a, b]`` is
reported as its duration, minus the probe's own time inside it, times
the mean of ``REF_S / loop duration`` over the samples taken during it.
A change that makes the program faster shrinks the interval and leaves
the loop alone, so normalised times still show it.

Signal handlers run between bytecodes of the main thread and touch no
program state, so the probe cannot change what the program computes.
It is never active while tracing.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter
from typing import List, Optional, Tuple

__all__ = ["SpeedProbe", "REF_S"]

#: iterations of the calibration loop
CALIB_LOOPS = 25000
#: the loop's duration at the reference speed (quiet 2-vCPU host)
REF_S = 0.00095


def calibrate() -> Tuple[float, float]:
    """Run the calibration loop once; returns its (start, end)."""
    t0 = perf_counter()
    s = 0
    for k in range(CALIB_LOOPS):
        s += k
    return t0, perf_counter()


class SpeedProbe:
    """Samples host speed from ``SIGALRM`` while used as a context."""

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        #: (start, end) of every calibration, in time order
        self.samples: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._previous = None

    def _on_alarm(self, _signum: int, _frame: object) -> None:
        self.samples.append(calibrate())

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())

    def _index(self) -> None:
        if len(self._starts) != len(self.samples):
            self._starts = [s for s, _ in self.samples]
            self._ends = [e for _, e in self.samples]

    def factor(self, a: float, b: float) -> Optional[float]:
        """Mean speed factor over the samples near ``[a, b]``."""
        self._index()
        lo = bisect.bisect_left(self._starts, a - self.period)
        hi = bisect.bisect_right(self._starts, b + self.period)
        near = self.samples[lo:hi]
        if not near:
            return None
        return sum(REF_S / (e - s) for s, e in near) / len(near)

    def normalise(self, a: float, b: float) -> float:
        """Seconds ``[a, b]`` would take at the reference speed, without
        the probe's own time inside it."""
        self._index()
        lo = bisect.bisect_right(self._ends, a)
        hi = bisect.bisect_left(self._starts, b)
        busy = sum(min(e, b) - max(s, a) for s, e in self.samples[lo:hi])
        factor = self.factor(a, b)
        return (b - a - busy) * (factor if factor is not None else 1.0)
