"""The Load Balancing Controller and the Adaptive Allocation Algorithm
(paper Section 3.2, Fig. 2).

The LBC watches recent outcomes and, periodically or when the USM drops
by more than a threshold (1 % of the USM range), reduces the *dominant*
average penalty:

* rejection cost ``R`` dominant   → Loosen Admission Control,
* DMF cost ``F_m`` dominant       → Degrade Updates + Tighten AC,
* DSF cost ``F_s`` dominant       → Upgrade Updates.

When all three penalty weights are zero (the naive/success-ratio
setting) the raw failure ratios stand in for the costs (Fig. 2,
lines 2–3).  Ties break randomly.
"""

from __future__ import annotations

import enum
import random
from typing import List, Optional

from repro.core.usm import UsmWindow
from repro.obs.trace import NULL_RECORDER, Recorder


class ControlSignal(enum.Enum):
    """Signals the LBC sends to the AC and UM modules."""

    LOOSEN_ADMISSION = "LAC"
    TIGHTEN_ADMISSION = "TAC"
    DEGRADE_UPDATES = "DU"
    UPGRADE_UPDATES = "UU"

    # Singleton members: the C-level identity hash beats Enum's
    # name-based hash in the per-decision signal bookkeeping.
    __hash__ = object.__hash__


class LoadBalancingController:
    """Adaptive Allocation over a sliding outcome window."""

    def __init__(
        self,
        window: UsmWindow,
        rng: random.Random,
        usm_drop_threshold: float,
        min_samples: int = 10,
    ) -> None:
        if usm_drop_threshold <= 0:
            raise ValueError("usm_drop_threshold must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.window = window
        self.usm_drop_threshold = usm_drop_threshold
        self.min_samples = min_samples
        self._rng = rng
        self._last_usm: Optional[float] = None
        self.allocations = 0
        self.signal_counts = {signal: 0 for signal in ControlSignal}
        # Trace recorder; swapped in by the owning policy at bind time.
        # Emission never draws from ``rng`` — tie-breaks are untouched.
        self.recorder: Recorder = NULL_RECORDER

    def check_drop(self, now: float) -> bool:
        """True when the windowed USM fell by more than the threshold
        since the last allocation — the event trigger of Section 3.2."""
        last = self._last_usm
        if last is None:
            # No baseline yet: nothing to compare against.  Eviction
            # is not skipped for long — time is monotonic and every
            # other window reader evicts before reading.
            return False
        usm = self.window.average_usm(now)
        if usm is None:
            return False
        return usm < last - self.usm_drop_threshold

    def allocate(self, now: float) -> List[ControlSignal]:
        """Run the Adaptive Allocation Algorithm (Fig. 2).

        Returns the control signals to apply (possibly none, when the
        window is too thin or nothing is failing).
        """
        if self.window.sample_size(now) < self.min_samples:
            return []
        self._last_usm = self.window.average_usm(now)

        if self.window.profile.is_naive:
            costs = self.window.raw_failure_ratios(now)
        else:
            costs = self.window.cost_components(now)

        peak = max(costs.values())
        if peak <= 0:
            return []  # nothing failing: leave the knobs alone
        dominant_keys = [key for key, value in costs.items() if value == peak]
        dominant = (
            dominant_keys[0]
            if len(dominant_keys) == 1
            else self._rng.choice(dominant_keys)
        )

        if dominant == "R":
            signals = [ControlSignal.LOOSEN_ADMISSION]
        elif dominant == "F_m":
            signals = [ControlSignal.DEGRADE_UPDATES, ControlSignal.TIGHTEN_ADMISSION]
        else:  # "F_s"
            signals = [ControlSignal.UPGRADE_UPDATES]

        self.allocations += 1
        for signal in signals:
            self.signal_counts[signal] += 1
        rec = self.recorder
        if rec.enabled:
            rec.control_allocate(
                now,
                dict(costs),
                dominant,
                [signal.value for signal in signals],
                self._last_usm,
                self.window.sample_size(now),
            )
        return signals
