"""Time-series recording.

A :class:`TimeSeries` holds (time, value) pairs — queue usage
trajectories, community sizes, view staleness — in grow-by-doubling
NumPy buffers so long runs stay cheap, and the accessors return array
views suitable for vectorised analysis.  The run-wide
:class:`~repro.obs.registry.MetricsRegistry` is what samples probes into
them on a simulated-time cadence.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """Append-only (time, value) series backed by NumPy buffers."""

    # slots: the metrics registry appends to ~20 of these per sampling
    # tick on the hot path; fixed attribute offsets keep that cheap
    __slots__ = ("name", "_t", "_v", "_n")

    def __init__(self, name: str = "", initial_capacity: int = 256) -> None:
        self.name = name
        self._t = np.empty(initial_capacity, dtype=np.float64)
        self._v = np.empty(initial_capacity, dtype=np.float64)
        self._n = 0

    def append(self, t: float, v: float) -> None:
        if self._n == self._t.shape[0]:
            # Explicit grow-and-copy: ``np.resize`` fills the tail by
            # *repeating* the existing data, which silently duplicates
            # samples into the uninitialised region if anything ever
            # reads past ``_n``.  An empty buffer plus one copy keeps the
            # tail garbage-but-unreachable, like a list's growth.
            grown_t = np.empty(self._n * 2, dtype=np.float64)
            grown_v = np.empty(self._n * 2, dtype=np.float64)
            grown_t[: self._n] = self._t
            grown_v[: self._n] = self._v
            self._t = grown_t
            self._v = grown_v
        self._t[self._n] = t
        self._v[self._n] = v
        self._n += 1

    def __len__(self) -> int:
        return self._n

    @property
    def times(self) -> np.ndarray:
        """View (not a copy) of the recorded sample times."""
        return self._t[: self._n]

    @property
    def values(self) -> np.ndarray:
        """View (not a copy) of the recorded sample values."""
        return self._v[: self._n]

    def last(self) -> float:
        """Most recent value (0.0 on an empty series)."""
        return float(self._v[self._n - 1]) if self._n else 0.0

    # Analysis ---------------------------------------------------------------

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the values (0.0 on an empty series)."""
        return float(np.percentile(self.values, q)) if self._n else 0.0

    def percentiles(self, qs: Sequence[float]) -> np.ndarray:
        """Several percentiles in one pass over the value view."""
        if not self._n:
            return np.zeros(len(qs), dtype=np.float64)
        return np.percentile(self.values, qs)

    def mean(self) -> float:
        return float(self.values.mean()) if self._n else 0.0

    def max(self) -> float:
        return float(self.values.max()) if self._n else 0.0

    def time_average(self) -> float:
        """Piecewise-constant time average (value holds until next sample)."""
        if self._n < 2:
            return self.mean()
        t, v = self.times, self.values
        dt = np.diff(t)
        span = t[-1] - t[0]
        if span <= 0:
            return self.mean()
        return float(np.dot(v[:-1], dt) / span)

    def window(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``t0 <= time < t1``."""
        mask = (self.times >= t0) & (self.times < t1)
        return self.times[mask], self.values[mask]

    def crossings(self, level: float) -> int:
        """Number of sign changes of (value - level) — sampled crossing count."""
        if self._n < 2:
            return 0
        side = np.sign(self.values - level)
        side[side == 0] = 1
        return int(np.count_nonzero(np.diff(side)))
