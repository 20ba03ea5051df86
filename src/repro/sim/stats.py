"""Small statistics helpers shared by the simulator and the policies.

Everything here is incremental/online so that simulations never retain
per-event history.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right with plain float additions.

    This is what built-in ``sum()`` computes up to Python 3.11.  From
    3.12, ``sum()`` compensates float rounding (Neumaier), which can
    change the last bits, so every float sum that reaches a report, a
    trace or a generated workload goes through here instead: the bits
    then do not depend on the interpreter version.
    """
    total: float = 0
    for value in values:
        total += value
    return total


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

    def as_dict(self) -> Dict[str, Optional[float]]:
        """JSON-safe summary: min/max are None (→ ``null``) when empty,
        never the ±inf sentinels the stream starts from."""
        empty = not self._count
        return {
            "count": float(self._count),
            "mean": self.mean,
            "stdev": self.stdev,
            "min": None if empty else self._min,
            "max": None if empty else self._max,
        }
