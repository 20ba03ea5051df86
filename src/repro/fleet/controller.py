"""The global coordinator: per-shard LBCs feed a fleet-level controller.

Each shard already runs its own local load-balancing controller (the
UNIT LBC inside its policy).  The global coordinator sits above them:
at every control window it reads per-shard *epoch summaries* (outcome
deltas since the last window plus the shard's current ``C_flex``) and
plans one :class:`Directive` per shard, reallocating admission slack
and update-modulation pressure from the shards doing well toward the
shards falling behind.

The plan is relative-to-the-mean: a shard missing more deadlines than
the fleet average gets its ``C_flex`` raised (admit less) and, past a
threshold, a Degrade-Update nudge; a shard rejecting more than average
gets slack back.  On a 1-shard fleet every difference from the mean is
exactly ``0.0``, the factor is exactly ``1.0``, and no directive does
anything — which is what keeps the 1-shard fleet byte-identical to the
single-server runner.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import Recorder
from repro.sim.stats import ordered_sum

#: Gain of the factor on a shard's miss and reject excess over the
#: fleet mean.  Each ratio lies in [0, 1], so each excess lies strictly
#: inside (-1, 1) and the factor strictly inside (0.5, 1.5): no clamp
#: is needed (``ShardRun.apply_directive`` still bounds ``C_flex``).
_ETA = 0.25
#: Miss excess over the fleet mean past which a shard also gets a
#: Degrade-Update nudge (or, below its negative, an Upgrade).
_MODULATE_THRESHOLD = 0.15


@dataclasses.dataclass(frozen=True)
class EpochSummary:
    """One shard's deltas over the last control window (picklable)."""

    shard_id: int
    time: float
    deltas: Dict[str, int]  # outcome value -> count this epoch
    c_flex: Optional[float]  # None for non-UNIT policies

    @property
    def total(self) -> int:
        return sum(self.deltas.values())

    @property
    def miss_ratio(self) -> float:
        """(DMF + DSF) / resolved this epoch; 0.0 on an idle epoch."""
        total = self.total
        if total == 0:
            return 0.0
        return (self.deltas.get("dmf", 0) + self.deltas.get("dsf", 0)) / total

    @property
    def reject_ratio(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return self.deltas.get("rejected", 0) / total


@dataclasses.dataclass(frozen=True)
class Directive:
    """The coordinator's instruction to one shard for the next epoch.

    ``flex_factor`` multiplies the shard's ``C_flex`` (values above 1
    tighten admission; exactly 1.0 is a no-op).  ``modulate`` asks the
    shard's modulator for one Degrade-Update round (``"degrade"``), a
    full Upgrade-Update pass (``"upgrade"``), or nothing (``None``).
    """

    shard_id: int
    flex_factor: float = 1.0
    modulate: Optional[str] = None

    @property
    def is_noop(self) -> bool:
        return self.flex_factor == 1.0 and self.modulate is None


class GlobalCoordinator:
    """Plans per-shard directives from fleet-wide epoch summaries."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder

    def plan(self, summaries: Sequence[EpochSummary]) -> List[Directive]:
        """One directive per summary, in shard order.

        Pure arithmetic over the summaries — no RNG, no clock — so the
        plan is a deterministic function of the epoch.  Differences
        from the fleet mean drive the factor; with one shard the
        differences are exactly zero and every directive is a no-op.
        """
        if not summaries:
            return []
        n = len(summaries)
        mean_miss = ordered_sum(s.miss_ratio for s in summaries) / n
        mean_reject = ordered_sum(s.reject_ratio for s in summaries) / n

        directives: List[Directive] = []
        for summary in sorted(summaries, key=lambda s: s.shard_id):
            miss_excess = summary.miss_ratio - mean_miss
            reject_excess = summary.reject_ratio - mean_reject
            # With one shard both excesses are exactly 0.0 and the
            # factor is exactly 1.0.
            factor = 1.0 + _ETA * miss_excess - _ETA * reject_excess
            modulate: Optional[str] = None
            if miss_excess > _MODULATE_THRESHOLD:
                modulate = "degrade"
            elif miss_excess < -_MODULATE_THRESHOLD and summary.deltas.get(
                "rejected", 0
            ) == 0:
                modulate = "upgrade"
            directive = Directive(
                shard_id=summary.shard_id, flex_factor=factor, modulate=modulate
            )
            directives.append(directive)
            if (
                self.recorder is not None
                and self.recorder.enabled
                and not directive.is_noop
            ):
                before = summary.c_flex if summary.c_flex is not None else 0.0
                self.recorder.fleet_rebalance(
                    summary.time,
                    summary.shard_id,
                    factor,
                    before,
                    before * factor,
                    modulate,
                )
        return directives
