"""QMF re-implementation (Kang, Son & Stankovic, TKDE 2004) — the
state-of-the-art competitor of Section 4.1.

The original code was provided privately to the UNIT authors; we
rebuild the policy from the published control rules the paper
summarizes:

    "With the CPU underutilized, QMF tries to update more often if the
    target freshness is not met, otherwise admits more transactions.
    With the CPU overloaded, QMF updates less often if current
    freshness is higher than target freshness, otherwise drops incoming
    transactions until the system recovers.  The adaptive update policy
    controls how many updates to be dropped, and whose updates to be
    dropped (based on the ratio of number of accesses over number of
    updates on each data)."

Mechanisms:

* **Admission** — a feasibility check (reject queries that cannot make
  their deadline) plus a backlog quota in seconds of outstanding query
  work; the controller halves the quota when it sheds load and grows
  it 5 % when the system keeps up.  QMF optimizes *miss ratio among
  admitted transactions*, so its control deems the system overloaded
  as soon as the recent miss ratio exceeds the target — this is
  exactly the conservatism that gives QMF its high rejection ratio in
  the paper's Fig. 6(a).
* **Adaptive update policy** — a *flexible-freshness* fraction of the
  items (lowest access-to-update ratio first) has periodic updates
  dropped and is refreshed on demand when an admitted query needs it;
  the remaining items update immediately.  The controller moves the
  fraction ±10 points per signal.  Kang et al. describe two variants:
  QMF-1 simply skips updates on flexible-freshness items; QMF-2, the
  stronger one the UNIT paper compares against and the one built here,
  refreshes them on demand when an admitted query reads them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.core.usm import PenaltyProfile, UsmWindow
from repro.db.items import DataItem
from repro.db.policy_api import ServerPolicy
from repro.db.server import CONTROL_EVENT_PRIORITY
from repro.db.transactions import Outcome, QueryTransaction
from repro.sim.stats import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.server import Server


# Set-points and steps of the QMF controller, at the values of the
# published evaluation: a tight (1 %) miss-ratio target and a 90 %
# perceived-freshness target.
_MISS_RATIO_TARGET = 0.01
_FRESHNESS_TARGET = 0.90
_CONTROL_PERIOD = 5.0
_WINDOW = 20.0
_UTILIZATION_HIGH = 0.90
_QUOTA_SHRINK = 0.50
_QUOTA_GROW = 0.05
_FLEX_STEP = 0.10
_INITIAL_BACKLOG_QUOTA = 5.0
_QUOTA_MIN = 1e-3
_QUOTA_MAX = 1e6


class QmfPolicy(ServerPolicy):
    """Feedback control of miss ratio and perceived freshness."""

    reads_profile = False

    def __init__(self) -> None:
        self.backlog_quota = _INITIAL_BACKLOG_QUOTA
        self.flex_fraction = 0.0
        self._flexible: Set[int] = set()
        self._server: Optional["Server"] = None
        self._outcomes = UsmWindow(PenaltyProfile.naive(), _WINDOW)
        self._last_busy = 0.0
        self._pending: Dict[int, object] = {}  # item_id -> pending refresh txn
        self.refreshes_spawned = 0
        self.refreshes_shared = 0
        self.rejections_feasibility = 0
        self.rejections_quota = 0
        self.control_ticks = 0

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
        # Feasibility: the backlog ahead of the query must leave room
        # for its own execution before the deadline.
        backlog = (
            server.running_remaining()
            + server.ready.update_backlog()
            + server.ready.query_backlog_before(query.deadline)
        )
        if backlog + query.exec_time >= query.relative_deadline:
            self.rejections_feasibility += 1
            return False
        # Quota: cap the outstanding admitted query work so admitted
        # transactions keep a low miss ratio.
        outstanding = ordered_sum(txn.remaining for txn in server.ready.ready_queries())
        running = server.running_transaction()
        if running is not None and not running.is_update:
            outstanding += server.running_remaining()
        if outstanding > self.backlog_quota:
            self.rejections_quota += 1
            return False
        return True

    def should_apply_update(self, item: DataItem, server: "Server") -> bool:
        return item.item_id not in self._flexible

    def on_query_stale_at_read(self, query: QueryTransaction, server: "Server") -> bool:
        # Flexible-freshness items are refreshed on demand at read time,
        # and a later reader attaches to a pending refresh; an item might
        # also be stale because it *left* the flexible set with drops
        # outstanding — refresh those too rather than serving stale data.
        from repro.core.baselines import refresh_stale_items

        return refresh_stale_items(self, query, server, server.items, dedup=True)

    def on_query_outcome(self, outcome: Outcome, server: "Server") -> None:
        self._outcomes.record(server.now, outcome)

    def describe(self) -> str:
        return "QMF"

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------

    def _recent_miss_ratio(self, now: float) -> Optional[float]:
        """DMF / admitted-and-finished within the window (QMF's metric)."""
        counts = self._outcomes.counts(now)
        admitted = (
            counts[Outcome.SUCCESS]
            + counts[Outcome.DATA_STALE]
            + counts[Outcome.DEADLINE_MISS]
        )
        if not admitted:
            return None
        return counts[Outcome.DEADLINE_MISS] / admitted

    def _database_freshness(self) -> float:
        """QMF's QoD metric: the fraction of *database* items currently
        fresh (Kang et al. measure freshness over the whole DB, not over
        accessed data — this is what keeps QMF spending CPU on updates
        for data nobody reads, one of the behaviours UNIT improves on).
        """
        assert self._server is not None
        items = self._server.items
        fresh = sum(1 for item in items if item.udrop == 0)
        return fresh / len(items)

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------

    def _control_tick(self) -> None:
        assert self._server is not None
        server = self._server
        now = server.now
        self.control_ticks += 1

        busy = server.busy_time()
        utilization = (busy - self._last_busy) / _CONTROL_PERIOD
        self._last_busy = busy

        miss_ratio = self._recent_miss_ratio(now)
        freshness = self._database_freshness()

        overloaded = utilization >= _UTILIZATION_HIGH or (
            miss_ratio is not None and miss_ratio > _MISS_RATIO_TARGET
        )

        if overloaded:
            if freshness > _FRESHNESS_TARGET:
                self._move_flex(+_FLEX_STEP)  # update less often
            else:
                # Shed load hard: the original controller guarantees the
                # miss-ratio target "at all costs", which is exactly the
                # conservatism the UNIT paper observes ("drops many
                # queries to guarantee the admitted transactions").
                self.backlog_quota = max(
                    _QUOTA_MIN, self.backlog_quota * (1.0 - _QUOTA_SHRINK)
                )
        else:
            if freshness < _FRESHNESS_TARGET:
                self._move_flex(-_FLEX_STEP)  # update more often
            else:
                self.backlog_quota = min(
                    _QUOTA_MAX, self.backlog_quota * (1.0 + _QUOTA_GROW)
                )

        self._refresh_flexible_set()
        server.sim.schedule_after(
            _CONTROL_PERIOD,
            self._control_tick,
            priority=CONTROL_EVENT_PRIORITY,
        )

    def _move_flex(self, delta: float) -> None:
        self.flex_fraction = min(1.0, max(0.0, self.flex_fraction + delta))

    def _refresh_flexible_set(self) -> None:
        """Re-rank items by access-to-update ratio and mark the bottom
        ``flex_fraction`` as flexible freshness (updates dropped)."""
        assert self._server is not None
        items = self._server.items
        count = int(round(self.flex_fraction * len(items)))
        if count <= 0:
            self._flexible = set()
            return
        ranked = sorted(
            items,
            key=lambda item: item.query_accesses / (1.0 + item.arrivals),
        )
        self._flexible = {item.item_id for item in ranked[:count]}
