"""Random-variate helpers used by the workload generators.

Everything takes an explicit :class:`random.Random` stream so traces
are reproducible from a master seed (see :mod:`repro.sim.rng`).
"""

from __future__ import annotations

import math
import random
from typing import List


def zipf_weights(n: int, skew: float) -> List[float]:
    """Normalized Zipf(``skew``) weights over ranks ``1..n``.

    ``skew = 0`` degenerates to uniform; larger skews concentrate mass
    on low ranks.  The cello trace's region-access histogram (paper
    Fig. 3(a)) is heavily skewed; we model it with skew around 0.9.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    raw = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


def shuffled_zipf_weights(n: int, skew: float, rng: random.Random) -> List[float]:
    """Zipf weights assigned to item ids in random order.

    The disk-region mapping in the original trace does not put the
    hottest region at id 0; shuffling reproduces that while keeping the
    histogram shape.
    """
    weights = zipf_weights(n, skew)
    rng.shuffle(weights)
    return weights


def lognormal_from_mean_cv(mean: float, cv: float, rng: random.Random) -> float:
    """Draw a lognormal variate with the given mean and coefficient of
    variation (stdev/mean).

    Service times of disk reads/writes are right-skewed; lognormal with
    cv around 1 is the conventional stand-in.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    if cv == 0:
        return mean
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return rng.lognormvariate(mu, math.sqrt(sigma2))


def exponential(mean: float, rng: random.Random) -> float:
    """Exponential variate with the given mean."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    return rng.expovariate(1.0 / mean)


class BurstyArrivalProcess:
    """A two-state Markov-modulated Poisson process.

    Alternates between a *normal* state and a *flash-crowd* state; the
    flash state multiplies the arrival rate by ``burst_factor``.  Dwell
    times in each state are exponential.  This is the standard minimal
    model for web-server flash crowds, which Section 1 of the paper
    names as the reason peak-load shedding is needed.
    """

    def __init__(
        self,
        base_rate: float,
        burst_factor: float,
        normal_dwell: float,
        burst_dwell: float,
        rng: random.Random,
    ) -> None:
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        if normal_dwell <= 0 or burst_dwell <= 0:
            raise ValueError("dwell times must be positive")
        self.base_rate = base_rate
        self.burst_factor = burst_factor
        self.normal_dwell = normal_dwell
        self.burst_dwell = burst_dwell
        self._rng = rng
        self._in_burst = False
        self._state_ends_at = exponential(normal_dwell, rng)
        self._now = 0.0

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate of the process."""
        weight_burst = self.burst_dwell / (self.burst_dwell + self.normal_dwell)
        return self.base_rate * (1.0 + (self.burst_factor - 1.0) * weight_burst)

    def next_arrival(self) -> float:
        """Advance to, and return, the next arrival time."""
        while True:
            rate = self.base_rate * (self.burst_factor if self._in_burst else 1.0)
            gap = exponential(1.0 / rate, self._rng)
            if self._now + gap <= self._state_ends_at:
                self._now += gap
                return self._now
            # Cross into the next modulation state and re-draw (the
            # memoryless property makes discarding the partial gap sound).
            self._now = self._state_ends_at
            self._in_burst = not self._in_burst
            dwell = self.burst_dwell if self._in_burst else self.normal_dwell
            self._state_ends_at = self._now + exponential(dwell, self._rng)

    def arrivals_until(self, horizon: float) -> List[float]:
        """All arrival times in ``(now, horizon]``."""
        times: List[float] = []
        while True:
            arrival = self.next_arrival()
            if arrival > horizon:
                return times
            times.append(arrival)


class CumulativeSampler:
    """O(log n) categorical sampling from a fixed weight vector."""

    def __init__(self, weights: List[float]) -> None:
        if not weights:
            raise ValueError("weights cannot be empty")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        self._cum: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            self._cum.append(acc)
        if acc <= 0:
            raise ValueError("weights must not all be zero")
        self._total = acc

    def sample(self, rng: random.Random) -> int:
        """Draw one index with probability proportional to its weight."""
        import bisect

        target = rng.random() * self._total
        return bisect.bisect_right(self._cum, target)
