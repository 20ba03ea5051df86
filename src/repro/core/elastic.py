"""Elastic update scheduling — a related-work baseline.

The paper's Section 5 contrasts UNIT's update-frequency modulation with
Buttazzo, Lipari, Caccamo & Abeni's *elastic scheduling* (IEEE ToC
2002), where "periodic tasks are treated as springs, so the period (and
also the workload) can be adjusted by changing the elastic
coefficients" — a general overload-management technique that stretches
*every* task's period proportionally, with no notion of which data the
users actually read.

This policy is that idea applied to the update streams: a feedback loop
measures the update class's CPU share each period and compresses or
relaxes one global stretch factor so the share tracks a target.  All
items stretch together (uniform elasticity), which makes ElasticPolicy
the natural ablation partner for UNIT — same knob (periods), none of
the ticket/lottery selectivity.  Queries are admitted with the same
feasibility check UNIT's deadline check reduces to at its loosest
setting, so the comparison isolates the update side.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional

from repro.db.items import DataItem
from repro.db.policy_api import ServerPolicy
from repro.db.server import CONTROL_EVENT_PRIORITY
from repro.db.transactions import QueryTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.server import Server


# Feedback interval in seconds.
_CONTROL_PERIOD = 1.0
# Multiplicative stretch/relax factor per control decision.
_STEP = 0.10
# Upper bound on the global period stretch.
_MAX_STRETCH = 100.0


@dataclasses.dataclass
class ElasticConfig:
    """Tunables of the elastic update scheduler.

    Attributes:
        target_update_share: CPU fraction the update class may consume;
            the spring compresses (periods stretch) when the measured
            share exceeds it.
    """

    target_update_share: float = 0.30

    def __post_init__(self) -> None:
        if not 0 < self.target_update_share < 1:
            raise ValueError("target_update_share must be in (0, 1)")


class ElasticPolicy(ServerPolicy):
    """Uniform, utilization-driven period stretching for all items."""

    reads_profile = False

    def __init__(self, config: Optional[ElasticConfig] = None) -> None:
        self.config = config or ElasticConfig()
        self.stretch = 1.0
        self._server: Optional["Server"] = None
        self._last_busy_update = 0.0
        self._last_apply: Dict[int, float] = {}
        self.compressions = 0
        self.relaxations = 0

    # ------------------------------------------------------------------
    # ServerPolicy interface
    # ------------------------------------------------------------------

    def bind(self, server: "Server") -> None:
        self._server = server
        server.sim.schedule_after(
            _CONTROL_PERIOD,
            self._control_tick,
            priority=CONTROL_EVENT_PRIORITY,
        )

    def admit_query(self, query: QueryTransaction, server: "Server") -> bool:
        # Reject queries whose execution cannot fit before their
        # deadline given the current backlog: the query side stays
        # comparable to UNIT's loosest admission.
        backlog = (
            server.running_remaining()
            + server.ready.update_backlog()
            + server.ready.query_backlog_before(query.deadline)
        )
        return backlog + query.exec_time < query.relative_deadline

    def should_apply_update(self, item: DataItem, server: "Server") -> bool:
        # Identical gating to UNIT's, but against the *global* stretched
        # period rather than a per-item modulated one.
        effective_period = item.ideal_period * self.stretch
        now = server.now
        last = self._last_apply.get(item.item_id)
        if last is None or now - last >= effective_period * (1.0 - 1e-9):
            self._last_apply[item.item_id] = now
            return True
        return False

    def describe(self) -> str:
        return "Elastic"

    # ------------------------------------------------------------------
    # the spring
    # ------------------------------------------------------------------

    def _control_tick(self) -> None:
        assert self._server is not None
        server = self._server
        busy_update = server.busy_time_by_class()["update"]
        share = (busy_update - self._last_busy_update) / _CONTROL_PERIOD
        self._last_busy_update = busy_update

        if share > self.config.target_update_share:
            self.stretch = min(_MAX_STRETCH, self.stretch * (1.0 + _STEP))
            self.compressions += 1
        elif self.stretch > 1.0:
            self.stretch = max(1.0, self.stretch * (1.0 - _STEP))
            self.relaxations += 1

        server.sim.schedule_after(
            _CONTROL_PERIOD,
            self._control_tick,
            priority=CONTROL_EVENT_PRIORITY,
        )
