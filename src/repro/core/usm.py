"""The User Satisfaction Metric (paper Section 2.3).

Each query contributes a gain ``G_s`` on success or a penalty ``C_r`` /
``C_fm`` / ``C_fs`` on rejection / deadline miss / stale data (Eq. 3).
The system USM is the sum over all submitted queries (Eq. 2); dividing
by the number of submitted queries gives the *average* USM

    ``USM = S - R - F_m - F_s``                       (Eq. 5)

whose range is ``[-max(C_r, C_fm, C_fs), G_s]`` (Section 2.3.2).
Setting all penalties to zero collapses USM to the classic success
ratio — the paper's "naive USM" used in Fig. 4.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, Mapping, Optional, Tuple

from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.db.transactions import Outcome
from repro.sim.stats import ordered_sum


@dataclasses.dataclass(frozen=True)
class PenaltyProfile:
    """The users' preference weights.

    Attributes:
        c_r: Rejection penalty.
        c_fm: Deadline-Missed-Failure penalty.
        c_fs: Data-Stale-Failure penalty.
        gain: Success gain ``G_s``; the paper normalizes penalties to a
            gain of 1.
        name: Label for reports (e.g. ``"high C_fm (<1)"``).
    """

    c_r: float = 0.0
    c_fm: float = 0.0
    c_fs: float = 0.0
    gain: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if min(self.c_r, self.c_fm, self.c_fs) < 0:
            raise ValueError("penalties cannot be negative")
        if self.gain <= 0:
            raise ValueError("gain must be positive")

    def contribution(self, outcome: Outcome) -> float:
        """Per-query USM contribution for the given outcome (Eq. 3)."""
        if outcome is Outcome.SUCCESS:
            return self.gain
        if outcome is Outcome.REJECTED:
            return -self.c_r
        if outcome is Outcome.DEADLINE_MISS:
            return -self.c_fm
        if outcome is Outcome.DATA_STALE:
            return -self.c_fs
        raise ValueError(f"unaccounted outcome {outcome!r}")

    @property
    def usm_min(self) -> float:
        """Lower bound of the average USM."""
        return -max(self.c_r, self.c_fm, self.c_fs, 0.0)

    @property
    def usm_max(self) -> float:
        """Upper bound of the average USM (all queries succeed)."""
        return self.gain

    @property
    def usm_range(self) -> float:
        """Width of the attainable USM interval."""
        return self.usm_max - self.usm_min

    @property
    def is_naive(self) -> bool:
        """True when all penalties are zero (USM == success ratio)."""
        return self.c_r == self.c_fm == self.c_fs == 0.0

    @classmethod
    def naive(cls) -> "PenaltyProfile":
        """The Fig. 4 setting: USM equals the success ratio."""
        return cls(name="naive")

    def describe(self) -> str:
        label = self.name or "custom"
        return (
            f"{label} (C_r={self.c_r:g}, C_fm={self.c_fm:g}, "
            f"C_fs={self.c_fs:g}, G_s={self.gain:g})"
        )


# Table 2: the six weight settings used in Fig. 5.
TABLE2_PROFILES: Dict[str, PenaltyProfile] = {
    "lt1-high-cr": PenaltyProfile(c_r=0.5, c_fm=0.1, c_fs=0.1, name="high C_r (<1)"),
    "lt1-high-cfm": PenaltyProfile(c_r=0.1, c_fm=0.5, c_fs=0.1, name="high C_fm (<1)"),
    "lt1-high-cfs": PenaltyProfile(c_r=0.1, c_fm=0.1, c_fs=0.5, name="high C_fs (<1)"),
    "gt1-high-cr": PenaltyProfile(c_r=5.0, c_fm=1.0, c_fs=1.0, name="high C_r (>1)"),
    "gt1-high-cfm": PenaltyProfile(c_r=1.0, c_fm=5.0, c_fs=1.0, name="high C_fm (>1)"),
    "gt1-high-cfs": PenaltyProfile(c_r=1.0, c_fm=1.0, c_fs=5.0, name="high C_fs (>1)"),
}


class UsmAccumulator:
    """Cumulative USM bookkeeping over a whole run (Eqs. 2–5)."""

    def __init__(self, profile: PenaltyProfile) -> None:
        self.profile = profile
        self.counts: Dict[Outcome, int] = {outcome: 0 for outcome in Outcome}

    def record(self, outcome: Outcome) -> None:
        self.counts[outcome] += 1

    @property
    def total_queries(self) -> int:
        return sum(self.counts.values())

    def total_usm(self) -> float:
        """System USM: the Eq. 4 sum of gains minus penalties."""
        return ordered_sum(
            self.profile.contribution(outcome) * count
            for outcome, count in self.counts.items()
        )

    def average_usm(self) -> float:
        """Average USM (Eq. 5); 0.0 before any query is recorded."""
        total = self.total_queries
        if not total:
            return 0.0
        return self.total_usm() / total

    def ratios(self) -> Dict[Outcome, float]:
        """Outcome ratios R_s / R_r / R_fm / R_fs (Section 4.5)."""
        total = self.total_queries
        if not total:
            return {outcome: 0.0 for outcome in Outcome}
        return {outcome: count / total for outcome, count in self.counts.items()}

    def components(self) -> Dict[str, float]:
        """The Eq. 5 decomposition: S, R, F_m, F_s (all non-negative)."""
        ratios = self.ratios()
        return {
            "S": ratios[Outcome.SUCCESS] * self.profile.gain,
            "R": ratios[Outcome.REJECTED] * self.profile.c_r,
            "F_m": ratios[Outcome.DEADLINE_MISS] * self.profile.c_fm,
            "F_s": ratios[Outcome.DATA_STALE] * self.profile.c_fs,
        }

    @classmethod
    def from_counts(
        cls,
        profile: PenaltyProfile,
        counts: Mapping[Outcome, int],
    ) -> "UsmAccumulator":
        """Build an accumulator from pre-counted outcomes."""
        acc = cls(profile)
        for outcome, count in counts.items():
            acc.counts[outcome] += count
        return acc


class UsmWindow:
    """Recent-window USM signals for the feedback controllers.

    Tracks outcomes within a sliding time window and answers the
    questions the controllers ask: the recent outcome counts (QMF's
    miss ratio), the recent average USM (UNIT's drop trigger) and the
    recent cost components / outcome ratios (the Adaptive Allocation
    Algorithm).  An event is retained while its time is at least
    ``now - window``; every read evicts first.  All reads price the
    window's one profile from the per-outcome counts.
    """

    def __init__(self, profile: PenaltyProfile, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.profile = profile
        self.window = window
        self._events: Deque[Tuple[float, Outcome]] = deque()
        self._counts: Dict[Outcome, int] = {outcome: 0 for outcome in Outcome}
        # Exact fixed-point mirror of each outcome's Eq. 3 contribution:
        # the windowed USM sum is an exact integer sum over the counts.
        self._fixed: Dict[Outcome, int] = {
            outcome: fixed_from_float(profile.contribution(outcome)) for outcome in Outcome
        }
        self._costs: Tuple[Tuple[str, Outcome, float], ...] = (
            ("R", Outcome.REJECTED, profile.c_r),
            ("F_m", Outcome.DEADLINE_MISS, profile.c_fm),
            ("F_s", Outcome.DATA_STALE, profile.c_fs),
        )

    def record(self, now: float, outcome: Outcome) -> None:
        self._events.append((now, outcome))
        self._counts[outcome] += 1

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        events = self._events
        counts = self._counts
        while events and events[0][0] < cutoff:
            counts[events.popleft()[1]] -= 1

    def sample_size(self, now: float) -> int:
        self._evict(now)
        return len(self._events)

    def counts(self, now: float) -> Dict[Outcome, int]:
        """Windowed per-outcome counts (absent outcomes are 0)."""
        self._evict(now)
        return dict(self._counts)

    def ratios(self, now: float) -> Dict[Outcome, float]:
        """Windowed R_s / R_r / R_fm / R_fs (absent outcomes are 0)."""
        self._evict(now)
        total = len(self._events)
        if not total:
            return {outcome: 0.0 for outcome in Outcome}
        counts = self._counts
        return {outcome: counts[outcome] / total for outcome in Outcome}

    def average_usm(self, now: float) -> Optional[float]:
        """Windowed average USM, or None if the window is empty."""
        self._evict(now)
        total = len(self._events)
        if not total:
            return None
        counts = self._counts
        fixed = sum(contrib * counts[outcome] for outcome, contrib in self._fixed.items())
        return float_from_fixed(fixed) / total

    def cost_components(self, now: float) -> Dict[str, float]:
        """Windowed R / F_m / F_s average costs (the Fig. 2 inputs)."""
        self._evict(now)
        total = len(self._events)
        if not total:
            return {"R": 0.0, "F_m": 0.0, "F_s": 0.0}
        counts = self._counts
        costs: Dict[str, float] = {}
        for key, outcome, weight in self._costs:
            # The weight added once per event, not count * weight: the
            # two round differently for inexact weights such as 0.1.
            value = 0.0
            for _ in range(counts[outcome]):
                value += weight
            costs[key] = value / total
        return costs

    def raw_failure_ratios(self, now: float) -> Dict[str, float]:
        """The all-penalties-zero fallback of Fig. 2 (lines 2–3)."""
        ratios = self.ratios(now)
        return {
            "R": ratios[Outcome.REJECTED],
            "F_m": ratios[Outcome.DEADLINE_MISS],
            "F_s": ratios[Outcome.DATA_STALE],
        }
