"""Structured trace recording for simulation runs.

Every instrumentation site in the server, the lock manager, and the
UNIT control modules is guarded by a single attribute check::

    rec = self.obs
    if rec.enabled:
        rec.query_outcome(...)

so the disabled path (the default, via the shared
:data:`NULL_RECORDER`) costs one attribute load and a false branch —
nothing is allocated, formatted, or appended.  The enabled path builds
one slotted :class:`TraceEvent` per occurrence and appends it to a
bounded ring buffer; when the ring is full the *oldest* events are
evicted and counted in :attr:`TraceRecorder.dropped`.

All timestamps are **simulated** time (the caller passes
``Simulator.now``); this module never reads the wall clock — simlint's
SL002 patrols it like any other simulation component.

Event kinds (the ``kind`` field of every event):

=====================  ==============================================
``query.admit``        query passed admission control
``query.outcome``      terminal outcome (success / rejected / dmf /
                       dsf) with latency, freshness, restart count
``sched.enqueue``      a query entered the ready queue (cause: admit /
                       grant / refresh / restart / preempt)
``sched.dispatch``     a query left the ready queue for the CPU
``sched.park``         a query blocked waiting on on-demand refreshes
``admission.decision`` the AC's full verdict (reason, EST, C_flex)
``lock.wait``          a transaction blocked behind a lock
``lock.grant``         a queued waiter was promoted to lock holder
``lock.preempt``       2PL-HP abort: victims named, requester named
``update.apply``       an update transaction committed
``update.drop``        a source arrival dropped by the policy
``modulation.change``  an item's period degraded / upgraded
``control.allocate``   one Adaptive Allocation decision (LBC)
``control.window``     controller window snapshot: USM components
                       S / R / F_m / F_s plus the knob values chosen
``fault.start``        an injected fault window opened (label, fault
                       type, parameters)
``fault.end``          an injected fault window closed
``fleet.route``        the fleet router assigned a query to a shard
                       (candidates considered, estimated freshness)
``fleet.rebalance``    the global coordinator issued a per-shard
                       directive (C_flex factor, modulation signal)
=====================  ==============================================
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

# Event-kind constants (shared with the exporters and the CLI).
QUERY_ADMIT = "query.admit"
QUERY_OUTCOME = "query.outcome"
SCHED_ENQUEUE = "sched.enqueue"
SCHED_DISPATCH = "sched.dispatch"
SCHED_PARK = "sched.park"
ADMISSION_DECISION = "admission.decision"
LOCK_WAIT = "lock.wait"
LOCK_GRANT = "lock.grant"
LOCK_PREEMPT = "lock.preempt"
UPDATE_APPLY = "update.apply"
UPDATE_DROP = "update.drop"
MODULATION_CHANGE = "modulation.change"
CONTROL_ALLOCATE = "control.allocate"
CONTROL_WINDOW = "control.window"
FAULT_START = "fault.start"
FAULT_END = "fault.end"
FLEET_ROUTE = "fleet.route"
FLEET_REBALANCE = "fleet.rebalance"

#: Synthetic header line prepended to JSONL exports when the recorder's
#: ring buffer dropped events (truncated stream).  Not a recordable
#: kind — never emitted by instrumentation, absent from ALL_KINDS — so
#: complete traces keep their historical digests byte-for-byte.
TRACE_META = "trace.meta"

ALL_KINDS: Tuple[str, ...] = (
    QUERY_ADMIT,
    QUERY_OUTCOME,
    SCHED_ENQUEUE,
    SCHED_DISPATCH,
    SCHED_PARK,
    ADMISSION_DECISION,
    LOCK_WAIT,
    LOCK_GRANT,
    LOCK_PREEMPT,
    UPDATE_APPLY,
    UPDATE_DROP,
    MODULATION_CHANGE,
    CONTROL_ALLOCATE,
    CONTROL_WINDOW,
    FAULT_START,
    FAULT_END,
    FLEET_ROUTE,
    FLEET_REBALANCE,
)

#: Default ring capacity: large enough for a full small-scale cell
#: (~100k events), small enough to stay a bounded memory cost.
DEFAULT_CAPACITY = 262_144


class TraceEvent:
    """One recorded occurrence, in sim time.

    Slotted: a run can record hundreds of thousands of these, so the
    per-event layout matters.  ``fields`` is a plain dict of
    JSON-serializable values; the flattened form (:meth:`as_dict`) is
    what the exporters consume.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Dict[str, object]) -> None:
        self.time = time
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> Dict[str, object]:
        """Flatten to ``{"t": ..., "kind": ..., **fields}``."""
        out: Dict[str, object] = {"t": self.time, "kind": self.kind}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return f"TraceEvent(t={self.time:.6f}, kind={self.kind!r}, {self.fields!r})"


class QueryAdmitEvent(TraceEvent):
    """``query.admit`` with typed slots instead of an eager fields dict.

    Admit and outcome are the two hottest kinds on the enabled path; the
    per-event dict construction dominated their recording cost.  The
    ``fields`` property (shadowing the base slot) builds the same dict
    on demand for exporters, so the flattened form is unchanged.
    """

    __slots__ = ("txn", "deadline", "n_items")

    def __init__(self, time: float, txn: int, deadline: float, n_items: int) -> None:
        self.time = time
        self.kind = QUERY_ADMIT
        self.txn = txn
        self.deadline = deadline
        self.n_items = n_items

    @property
    def fields(self) -> Dict[str, object]:  # type: ignore[override]
        return {"txn": self.txn, "deadline": self.deadline, "items": self.n_items}

    def as_dict(self) -> Dict[str, object]:
        return {
            "t": self.time,
            "kind": self.kind,
            "txn": self.txn,
            "deadline": self.deadline,
            "items": self.n_items,
        }


class QueryOutcomeEvent(TraceEvent):
    """``query.outcome`` with typed slots; see :class:`QueryAdmitEvent`."""

    __slots__ = ("txn", "outcome", "arrival", "latency", "freshness", "restarts")

    def __init__(
        self,
        time: float,
        txn: int,
        outcome: str,
        arrival: float,
        latency: float,
        freshness: Optional[float],
        restarts: int,
    ) -> None:
        self.time = time
        self.kind = QUERY_OUTCOME
        self.txn = txn
        self.outcome = outcome
        self.arrival = arrival
        self.latency = latency
        self.freshness = freshness
        self.restarts = restarts

    @property
    def fields(self) -> Dict[str, object]:  # type: ignore[override]
        return {
            "txn": self.txn,
            "outcome": self.outcome,
            "arrival": self.arrival,
            "latency": self.latency,
            "freshness": self.freshness,
            "restarts": self.restarts,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "t": self.time,
            "kind": self.kind,
            "txn": self.txn,
            "outcome": self.outcome,
            "arrival": self.arrival,
            "latency": self.latency,
            "freshness": self.freshness,
            "restarts": self.restarts,
        }


# ``sched.enqueue`` causes — why a query (re)entered the ready queue.
ENQUEUE_ADMIT = "admit"  # fresh admission
ENQUEUE_GRANT = "grant"  # a blocking lock was granted
ENQUEUE_REFRESH = "refresh"  # its on-demand refreshes committed
ENQUEUE_RESTART = "restart"  # restarted after a 2PL-HP abort
ENQUEUE_PREEMPT = "preempt"  # preempted off the CPU

ENQUEUE_CAUSES: Tuple[str, ...] = (
    ENQUEUE_ADMIT,
    ENQUEUE_GRANT,
    ENQUEUE_REFRESH,
    ENQUEUE_RESTART,
    ENQUEUE_PREEMPT,
)


class SchedEvent(TraceEvent):
    """The three ``sched.*`` kinds with typed slots.

    Scheduler transitions fire on every dispatch round of every query
    (several per query under contention), so like the admit/outcome
    events they skip the eager fields dict; ``cause`` is ``None`` for
    ``sched.dispatch`` / ``sched.park``.
    """

    __slots__ = ("txn", "cause")

    def __init__(
        self, time: float, kind: str, txn: int, cause: Optional[str]
    ) -> None:
        self.time = time
        self.kind = kind
        self.txn = txn
        self.cause = cause

    @property
    def fields(self) -> Dict[str, object]:  # type: ignore[override]
        if self.cause is None:
            return {"txn": self.txn}
        return {"txn": self.txn, "cause": self.cause}

    def as_dict(self) -> Dict[str, object]:
        if self.cause is None:
            return {"t": self.time, "kind": self.kind, "txn": self.txn}
        return {
            "t": self.time,
            "kind": self.kind,
            "txn": self.txn,
            "cause": self.cause,
        }


class ModulationChangeEvent(TraceEvent):
    """``modulation.change`` with typed slots.

    The most numerous kind in a UNIT run: every Upgrade signal emits
    one per degraded item, so like the query and scheduler kinds it
    skips the eager fields dict.
    """

    __slots__ = ("item", "direction", "old_period", "new_period")

    def __init__(
        self,
        time: float,
        item: int,
        direction: str,
        old_period: float,
        new_period: float,
    ) -> None:
        self.time = time
        self.kind = MODULATION_CHANGE
        self.item = item
        self.direction = direction
        self.old_period = old_period
        self.new_period = new_period

    @property
    def fields(self) -> Dict[str, object]:  # type: ignore[override]
        return {
            "item": self.item,
            "direction": self.direction,
            "old_period": self.old_period,
            "new_period": self.new_period,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "t": self.time,
            "kind": self.kind,
            "item": self.item,
            "direction": self.direction,
            "old_period": self.old_period,
            "new_period": self.new_period,
        }


class Recorder:
    """Interface shared by :class:`TraceRecorder` and :class:`NullRecorder`.

    Instrumentation sites hold a ``Recorder`` and guard every typed
    call with ``if rec.enabled:`` — the subclass never changes under a
    running simulation, so the guard is branch-predictable.
    """

    __slots__ = ()

    #: False on the null recorder; instrumentation guards on this.
    enabled: bool = False

    # -- generic hook ---------------------------------------------------

    def emit(self, time: float, kind: str, fields: Dict[str, object]) -> None:
        """Record one event (no-op on the null recorder)."""

    # -- typed hooks (all forward to :meth:`emit`) ----------------------

    def query_admit(
        self, time: float, txn_id: int, deadline: float, n_items: int
    ) -> None:
        self.emit(
            time, QUERY_ADMIT, {"txn": txn_id, "deadline": deadline, "items": n_items}
        )

    def query_outcome(
        self,
        time: float,
        txn_id: int,
        outcome: str,
        arrival: float,
        latency: float,
        freshness: Optional[float],
        restarts: int,
    ) -> None:
        self.emit(
            time,
            QUERY_OUTCOME,
            {
                "txn": txn_id,
                "outcome": outcome,
                "arrival": arrival,
                "latency": latency,
                "freshness": freshness,
                "restarts": restarts,
            },
        )

    def sched_enqueue(self, time: float, txn_id: int, cause: str) -> None:
        self.emit(time, SCHED_ENQUEUE, {"txn": txn_id, "cause": cause})

    def sched_dispatch(self, time: float, txn_id: int) -> None:
        self.emit(time, SCHED_DISPATCH, {"txn": txn_id})

    def sched_park(self, time: float, txn_id: int) -> None:
        self.emit(time, SCHED_PARK, {"txn": txn_id})

    def admission_decision(
        self,
        time: float,
        txn_id: int,
        admitted: bool,
        reason: str,
        est: float,
        endangered: int,
        c_flex: float,
    ) -> None:
        self.emit(
            time,
            ADMISSION_DECISION,
            {
                "txn": txn_id,
                "admitted": admitted,
                "reason": reason,
                "est": est,
                "endangered": endangered,
                "c_flex": c_flex,
            },
        )

    def lock_wait(
        self,
        time: float,
        txn_id: int,
        item_id: int,
        is_update: bool,
        holders: Sequence[int],
    ) -> None:
        self.emit(
            time,
            LOCK_WAIT,
            {
                "txn": txn_id,
                "item": item_id,
                "update": is_update,
                "holders": list(holders),
            },
        )

    def lock_grant(self, time: float, txn_id: int, item_id: int) -> None:
        self.emit(time, LOCK_GRANT, {"txn": txn_id, "item": item_id})

    def lock_preempt(
        self,
        time: float,
        txn_id: int,
        item_id: int,
        is_update: bool,
        victims: Sequence[int],
    ) -> None:
        self.emit(
            time,
            LOCK_PREEMPT,
            {
                "txn": txn_id,
                "item": item_id,
                "update": is_update,
                "victims": list(victims),
            },
        )

    def update_apply(
        self, time: float, item_id: int, txn_id: int, on_demand: bool, period: float
    ) -> None:
        self.emit(
            time,
            UPDATE_APPLY,
            {"item": item_id, "txn": txn_id, "on_demand": on_demand, "period": period},
        )

    def update_drop(self, time: float, item_id: int, period: float) -> None:
        self.emit(time, UPDATE_DROP, {"item": item_id, "period": period})

    def modulation_change(
        self,
        time: float,
        item_id: int,
        direction: str,
        old_period: float,
        new_period: float,
    ) -> None:
        self.emit(
            time,
            MODULATION_CHANGE,
            {
                "item": item_id,
                "direction": direction,
                "old_period": old_period,
                "new_period": new_period,
            },
        )

    def control_allocate(
        self,
        time: float,
        costs: Dict[str, float],
        dominant: str,
        signals: Sequence[str],
        usm: Optional[float],
        samples: int,
    ) -> None:
        fields: Dict[str, object] = {
            "dominant": dominant,
            "signals": list(signals),
            "usm": usm,
            "samples": samples,
        }
        fields.update({f"cost_{key}": value for key, value in sorted(costs.items())})
        self.emit(time, CONTROL_ALLOCATE, fields)

    def control_window(
        self,
        time: float,
        components: Dict[str, float],
        usm: Optional[float],
        samples: int,
        signals: Sequence[str],
        c_flex: float,
        update_load: float,
        degraded_items: int,
        ticket_threshold: float,
    ) -> None:
        fields: Dict[str, object] = {
            "usm": usm,
            "samples": samples,
            "signals": list(signals),
            "c_flex": c_flex,
            "update_load": update_load,
            "degraded_items": degraded_items,
            "ticket_threshold": ticket_threshold,
        }
        fields.update(
            {key: value for key, value in sorted(components.items())}
        )
        self.emit(time, CONTROL_WINDOW, fields)

    def fault_start(
        self,
        time: float,
        label: str,
        fault: str,
        params: Dict[str, float],
    ) -> None:
        fields: Dict[str, object] = {"label": label, "fault": fault}
        fields.update(sorted(params.items()))
        self.emit(time, FAULT_START, fields)

    def fault_end(self, time: float, label: str, fault: str) -> None:
        self.emit(time, FAULT_END, {"label": label, "fault": fault})

    def fleet_route(
        self,
        time: float,
        txn_id: int,
        shard: int,
        policy: str,
        candidates: Sequence[int],
        est_freshness: float,
        forced: bool,
    ) -> None:
        self.emit(
            time,
            FLEET_ROUTE,
            {
                "txn": txn_id,
                "shard": shard,
                "policy": policy,
                "candidates": list(candidates),
                "est_freshness": est_freshness,
                "forced": forced,
            },
        )

    def fleet_rebalance(
        self,
        time: float,
        shard: int,
        flex_factor: float,
        c_flex_before: float,
        c_flex_after: float,
        modulate: Optional[str],
    ) -> None:
        self.emit(
            time,
            FLEET_REBALANCE,
            {
                "shard": shard,
                "flex_factor": flex_factor,
                "c_flex_before": c_flex_before,
                "c_flex_after": c_flex_after,
                "modulate": modulate,
            },
        )


class NullRecorder(Recorder):
    """The disabled recorder: every hook is a no-op.

    Instrumentation sites check :attr:`enabled` (a class attribute,
    False here) before doing any work, so the per-event cost of the
    disabled path is one attribute load and an untaken branch.
    """

    __slots__ = ()

    enabled = False

    def __len__(self) -> int:
        return 0

    def events(self) -> Iterator[TraceEvent]:
        return iter(())


#: The shared disabled recorder — safe to share because it is stateless.
NULL_RECORDER = NullRecorder()


class TraceRecorder(Recorder):
    """Bounded in-memory trace recorder.

    Events land in a ring buffer of ``capacity`` slots: when full, the
    oldest event is evicted and counted in :attr:`dropped` (the *tail*
    of a run is usually the interesting part for debugging).  An
    optional :class:`~repro.obs.metrics.RunMetrics` sink folds every
    event into its registry as it is recorded, so metrics cover the
    whole run even when the ring wraps.
    """

    __slots__ = ("_ring", "_capacity", "dropped", "counts", "metrics")

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        metrics: Optional["RunMetricsLike"] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._ring: Deque[TraceEvent] = deque()
        self.dropped = 0
        self.counts: Dict[str, int] = {}
        self.metrics = metrics

    def emit(self, time: float, kind: str, fields: Dict[str, object]) -> None:
        self._record(TraceEvent(time, kind, fields), kind)

    def _record(self, event: TraceEvent, kind: str) -> None:
        ring = self._ring
        if len(ring) >= self._capacity:
            ring.popleft()
            self.dropped += 1
        ring.append(event)
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.observe_event(event)

    # The hottest kinds bypass ``emit`` entirely: a typed slotted
    # event is appended with no fields dict (built lazily only if an
    # exporter asks).

    def sched_enqueue(self, time: float, txn_id: int, cause: str) -> None:
        self._record(SchedEvent(time, SCHED_ENQUEUE, txn_id, cause), SCHED_ENQUEUE)

    def sched_dispatch(self, time: float, txn_id: int) -> None:
        self._record(SchedEvent(time, SCHED_DISPATCH, txn_id, None), SCHED_DISPATCH)

    def sched_park(self, time: float, txn_id: int) -> None:
        self._record(SchedEvent(time, SCHED_PARK, txn_id, None), SCHED_PARK)

    def query_admit(
        self, time: float, txn_id: int, deadline: float, n_items: int
    ) -> None:
        self._record(QueryAdmitEvent(time, txn_id, deadline, n_items), QUERY_ADMIT)

    def query_outcome(
        self,
        time: float,
        txn_id: int,
        outcome: str,
        arrival: float,
        latency: float,
        freshness: Optional[float],
        restarts: int,
    ) -> None:
        self._record(
            QueryOutcomeEvent(
                time, txn_id, outcome, arrival, latency, freshness, restarts
            ),
            QUERY_OUTCOME,
        )

    def modulation_change(
        self,
        time: float,
        item_id: int,
        direction: str,
        old_period: float,
        new_period: float,
    ) -> None:
        self._record(
            ModulationChangeEvent(time, item_id, direction, old_period, new_period),
            MODULATION_CHANGE,
        )

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def capacity(self) -> int:
        return self._capacity

    def events(self) -> Iterator[TraceEvent]:
        """The retained events, oldest first."""
        return iter(self._ring)

    def event_dicts(self) -> List[Dict[str, object]]:
        """All retained events flattened (the exporters' input)."""
        return [event.as_dict() for event in self._ring]

    def summary(self) -> Dict[str, object]:
        """Small, picklable digest for reports."""
        return {
            "events": len(self._ring),
            "recorded": sum(self.counts.values()),
            "dropped": self.dropped,
            "by_kind": dict(sorted(self.counts.items())),
        }


class RunMetricsLike:
    """Structural stand-in for :class:`repro.obs.metrics.RunMetrics`.

    Kept here (rather than importing the metrics module) so the trace
    layer has zero dependencies and the type reads in both directions.
    """

    __slots__ = ()

    def observe_event(self, event: TraceEvent) -> None:  # pragma: no cover
        raise NotImplementedError
