"""Small statistics helpers shared by the simulator and the policies.

Everything here is incremental/online so that simulations never retain
per-event history unless the caller explicitly asks for a
:class:`TimeSeries`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple


class OnlineStats:
    """Streaming count/mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        """Running mean; 0.0 when empty."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance; 0.0 with fewer than two observations."""
        if self._count < 2:
            return 0.0
        return self._m2 / self._count

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation; +inf when empty."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation; -inf when empty."""
        return self._max

    def as_dict(self) -> Dict[str, Optional[float]]:
        """JSON-safe summary: min/max are None (→ ``null``) when empty,
        never the ±inf sentinels the properties expose."""
        empty = not self._count
        return {
            "count": float(self._count),
            "mean": self.mean,
            "stdev": self.stdev,
            "min": None if empty else self._min,
            "max": None if empty else self._max,
        }


class TimeSeries:
    """An explicit ``(time, value)`` record, for figures and debugging."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError("time went backwards")
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(self._times)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent point, or None when empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def mean(self) -> float:
        """Unweighted mean of recorded values; 0.0 when empty."""
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)


class WindowedCounts:
    """Sliding-window event counters keyed by label.

    The feedback controllers (UNIT's LBC and QMF) react to *recent*
    outcome ratios; this class keeps per-label timestamps and evicts
    entries older than ``window`` on every query.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._events: Deque[Tuple[float, str]] = deque()

    def record(self, time: float, label: str) -> None:
        """Record one event with the given label at ``time``."""
        self._events.append((time, label))

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        while self._events and self._events[0][0] < cutoff:
            self._events.popleft()

    def counts(self, now: float) -> Dict[str, int]:
        """Per-label counts within ``[now - window, now]``."""
        self._evict(now)
        result: Dict[str, int] = {}
        for _, label in self._events:
            result[label] = result.get(label, 0) + 1
        return result

    def total(self, now: float) -> int:
        """Total events within the window."""
        self._evict(now)
        return len(self._events)

    def ratios(self, now: float) -> Dict[str, float]:
        """Per-label fractions within the window; empty dict if no events."""
        counts = self.counts(now)
        total = sum(counts.values())
        if not total:
            return {}
        return {label: count / total for label, count in counts.items()}
