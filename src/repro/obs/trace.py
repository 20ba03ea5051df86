"""Structured trace recording for simulation runs.

Every instrumentation site in the server, the lock manager, and the
UNIT control modules is guarded by a single attribute check::

    rec = self.obs
    if rec.enabled:
        rec.query_outcome(...)

so the disabled path (the default, via the shared
:data:`NULL_RECORDER`) costs one attribute load and a false branch —
nothing is allocated, formatted, or appended.  The enabled path builds
one plain tuple per occurrence, counts its kind and hands it to the
recorder's sinks.  A recorder built with a capacity keeps a bounded
ring buffer as one of those sinks; when the ring is full the *oldest*
events are evicted and counted in :attr:`TraceRecorder.dropped`.

An event is ``(time, kind, v1, …, vn)``: the values follow the field
names :data:`FIELDS` lists for the kind, in order.  The kinds whose
keys are open-ended (``control.allocate``, ``control.window``,
``fault.start``) and any kind the schema does not name end in one
trailing mapping slot (:data:`REST`) that flattens in its own order.
:func:`as_dict` and :func:`from_dict` are the only converters between
a tuple and its flattened ``{"t": …, "kind": …, **fields}`` form, the
shape of the JSONL exports.  A tuple of plain values (every
``query.*``, ``sched.*`` and ``modulation.change`` event; the latter
carries its item ids as a tuple, not a list, for this reason) is
untracked by the garbage collector once a collection has seen it, so
the bulk of a long trace costs the collector nothing to re-walk.

All timestamps are **simulated** time (the caller passes
``Simulator.now``); this module never reads the wall clock — simlint's
SF002 patrols it like any other simulation component.

Event kinds (the ``kind`` field of every event):

=====================  ==============================================
``query.admit``        query passed admission control
``query.outcome``      terminal outcome (success / rejected / dmf /
                       dsf) with latency, freshness, restart count
``sched.enqueue``      a query entered the ready queue (cause: admit /
                       refresh / restart / preempt)
``sched.dispatch``     a query left the ready queue for the CPU
``sched.park``         a query blocked waiting on on-demand refreshes
``admission.decision`` the AC's full verdict (reason, EST, C_flex)
``lock.preempt``       2PL-HP abort: victims named, requester named
``update.apply``       an update transaction committed
``update.drop``        a source arrival dropped by the policy
``modulation.change``  one Degrade / Upgrade signal: the ids of the
                       items whose period it changed, in order
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
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

# Event-kind constants (shared with the exporters and the CLI).
QUERY_ADMIT = "query.admit"
QUERY_OUTCOME = "query.outcome"
SCHED_ENQUEUE = "sched.enqueue"
SCHED_DISPATCH = "sched.dispatch"
SCHED_PARK = "sched.park"
ADMISSION_DECISION = "admission.decision"
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

#: The trailing mapping slot of an open-ended kind: its keys flatten
#: after the named fields, in the mapping's own order.
REST = "**"

#: The one schema: the field names of every recordable kind, in the
#: order an event tuple carries their values after ``(time, kind)``.
FIELDS: Dict[str, Tuple[str, ...]] = {
    QUERY_ADMIT: ("txn", "deadline", "items"),
    QUERY_OUTCOME: ("txn", "outcome", "arrival", "latency", "freshness", "restarts"),
    SCHED_ENQUEUE: ("txn", "cause"),
    SCHED_DISPATCH: ("txn",),
    SCHED_PARK: ("txn",),
    ADMISSION_DECISION: ("txn", "admitted", "reason", "est", "endangered", "c_flex"),
    LOCK_PREEMPT: ("txn", "item", "update", "victims"),
    UPDATE_APPLY: ("item", "txn", "on_demand", "period"),
    UPDATE_DROP: ("item", "period"),
    MODULATION_CHANGE: ("direction", "items"),
    # REST: cost_<component> per cost.
    CONTROL_ALLOCATE: ("dominant", "signals", "usm", "samples", REST),
    # REST: the USM components.
    CONTROL_WINDOW: (
        "usm", "samples", "signals", "c_flex", "update_load", "degraded_items",
        "ticket_threshold", REST,
    ),
    # REST: the fault's parameters.
    FAULT_START: ("label", "fault", REST),
    FAULT_END: ("label", "fault"),
    FLEET_ROUTE: ("txn", "shard", "policy", "candidates", "est_freshness", "forced"),
    FLEET_REBALANCE: (
        "shard", "flex_factor", "c_flex_before", "c_flex_after", "modulate",
    ),
}

ALL_KINDS: Tuple[str, ...] = tuple(FIELDS)

#: The schema of a kind :data:`FIELDS` does not name: one mapping.
_UNNAMED: Tuple[str, ...] = (REST,)

#: One recorded event: ``(time, kind, *values)`` in ``FIELDS[kind]`` order.
TraceEvent = Tuple[Any, ...]

#: Default ring capacity: large enough for a full small-scale cell
#: (~100k events), small enough to stay a bounded memory cost.
DEFAULT_CAPACITY = 262_144


def _pack(time: float, kind: str, fields: Mapping[str, object]) -> TraceEvent:
    """The tuple of ``kind`` for flattened ``fields``.

    A field the schema names but ``fields`` lacks packs as None; a key
    the schema does not name lands in the trailing mapping of an
    open-ended kind and is ignored for any other kind.
    """
    names = FIELDS.get(kind, _UNNAMED)
    if names[-1] != REST:
        return (time, kind, *[fields.get(name) for name in names])
    rest = dict(fields)
    values = [rest.pop(name, None) for name in names[:-1]]
    return (time, kind, *values, rest)


def as_dict(event: TraceEvent) -> Dict[str, object]:
    """Flatten an event to ``{"t": ..., "kind": ..., **fields}``."""
    kind = event[1]
    out: Dict[str, object] = {"t": event[0], "kind": kind}
    names = FIELDS.get(kind, _UNNAMED)
    if names[-1] != REST:
        out.update(zip(names, event[2:]))
    else:
        out.update(zip(names[:-1], event[2:-1]))
        out.update(event[-1])
    return out


def from_dict(flat: Mapping[str, object]) -> TraceEvent:
    """The event behind a flattened dict (a parsed JSONL line): the
    inverse of :func:`as_dict`.  A line without ``t`` (the
    ``trace.meta`` header) packs at time 0.0."""
    fields = dict(flat)
    time = float(fields.pop("t", 0.0))  # type: ignore[arg-type]
    kind = str(fields.pop("kind", ""))
    return _pack(time, kind, fields)


# ``sched.enqueue`` causes — why a query (re)entered the ready queue.
ENQUEUE_ADMIT = "admit"  # fresh admission
ENQUEUE_REFRESH = "refresh"  # its on-demand refreshes committed
ENQUEUE_RESTART = "restart"  # restarted after a 2PL-HP abort
ENQUEUE_PREEMPT = "preempt"  # preempted off the CPU

ENQUEUE_CAUSES: Tuple[str, ...] = (
    ENQUEUE_ADMIT,
    ENQUEUE_REFRESH,
    ENQUEUE_RESTART,
    ENQUEUE_PREEMPT,
)


class Recorder:
    """Interface shared by :class:`TraceRecorder` and :class:`NullRecorder`.

    Instrumentation sites hold a ``Recorder`` and guard every typed
    call with ``if rec.enabled:`` — the subclass never changes under a
    running simulation, so the guard is branch-predictable.  Each hook
    builds its event tuple in :data:`FIELDS` order and hands it to
    :meth:`_record`, which the base class discards.
    """

    __slots__ = ()

    #: False on the null recorder; instrumentation guards on this.
    enabled: bool = False

    def _record(self, event: TraceEvent) -> None:
        """Keep one event (discarded here and on the null recorder)."""

    # -- generic hook ---------------------------------------------------

    def emit(self, time: float, kind: str, fields: Mapping[str, object]) -> None:
        """Record one event given as flattened fields."""
        self._record(_pack(time, kind, fields))

    # -- typed hooks ----------------------------------------------------

    def query_admit(
        self, time: float, txn_id: int, deadline: float, n_items: int
    ) -> None:
        self._record((time, QUERY_ADMIT, txn_id, deadline, n_items))

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
            (time, QUERY_OUTCOME, txn_id, outcome, arrival, latency, freshness, restarts)
        )

    def sched_enqueue(self, time: float, txn_id: int, cause: str) -> None:
        self._record((time, SCHED_ENQUEUE, txn_id, cause))

    def sched_dispatch(self, time: float, txn_id: int) -> None:
        self._record((time, SCHED_DISPATCH, txn_id))

    def sched_park(self, time: float, txn_id: int) -> None:
        self._record((time, SCHED_PARK, txn_id))

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
        self._record(
            (time, ADMISSION_DECISION, txn_id, admitted, reason, est, endangered, c_flex)
        )

    def lock_wait(self, *args: object) -> None:
        """No-op: no lock wait happens; kept while ``perfbench/tracing.py`` hooks the name."""

    def lock_grant(self, *args: object) -> None:
        """No-op: no lock wait happens; kept while ``perfbench/tracing.py`` hooks the name."""

    def lock_preempt(
        self,
        time: float,
        txn_id: int,
        item_id: int,
        is_update: bool,
        victims: Sequence[int],
    ) -> None:
        self._record((time, LOCK_PREEMPT, txn_id, item_id, is_update, list(victims)))

    def update_apply(
        self, time: float, item_id: int, txn_id: int, on_demand: bool, period: float
    ) -> None:
        self._record((time, UPDATE_APPLY, item_id, txn_id, on_demand, period))

    def update_drop(self, time: float, item_id: int, period: float) -> None:
        self._record((time, UPDATE_DROP, item_id, period))

    def modulation_change(
        self, time: float, direction: str, items: Tuple[int, ...]
    ) -> None:
        self._record((time, MODULATION_CHANGE, direction, items))

    def control_allocate(
        self,
        time: float,
        costs: Dict[str, float],
        dominant: str,
        signals: Sequence[str],
        usm: Optional[float],
        samples: int,
    ) -> None:
        self._record(
            (
                time, CONTROL_ALLOCATE, dominant, list(signals), usm, samples,
                {f"cost_{key}": value for key, value in sorted(costs.items())},
            )
        )

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
        self._record(
            (
                time, CONTROL_WINDOW, usm, samples, list(signals), c_flex,
                update_load, degraded_items, ticket_threshold,
                dict(sorted(components.items())),
            )
        )

    def fault_start(
        self,
        time: float,
        label: str,
        fault: str,
        params: Dict[str, float],
    ) -> None:
        self._record((time, FAULT_START, label, fault, dict(sorted(params.items()))))

    def fault_end(self, time: float, label: str, fault: str) -> None:
        self._record((time, FAULT_END, label, fault))

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
        self._record(
            (
                time, FLEET_ROUTE, txn_id, shard, policy, list(candidates),
                est_freshness, forced,
            )
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
        self._record(
            (
                time, FLEET_REBALANCE, shard, flex_factor, c_flex_before,
                c_flex_after, modulate,
            )
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
    """In-memory trace recorder: per-kind counts plus event sinks.

    Each of the ``sinks`` is a callable that receives every event as it
    is recorded, in order, so a fold over the stream (such as
    :class:`~repro.obs.spans.SpanFold`) covers the whole run.  With a
    ``capacity`` the recorder also keeps a ring buffer of that many
    slots, whose ``append`` is one more sink: when full, the oldest
    event is evicted and counted in :attr:`dropped` (the *tail* of a run
    is usually the interesting part for debugging).  ``capacity=None``
    keeps no event at all, for runs where nothing reads the ring.
    """

    __slots__ = ("_ring", "counts", "sinks")

    enabled = True

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_CAPACITY,
        sinks: Sequence[Callable[[TraceEvent], None]] = (),
    ) -> None:
        # Without a ring, an empty deque that no sink appends to.
        self._ring: Deque[TraceEvent] = deque(maxlen=0)
        self.sinks = tuple(sinks)
        if capacity is not None:
            if capacity <= 0:
                raise ValueError("capacity must be positive")
            self._ring = deque(maxlen=capacity)
            self.sinks = (self._ring.append, *self.sinks)
        self.counts: Dict[str, int] = {}

    def _record(self, event: TraceEvent) -> None:
        counts = self.counts
        kind = event[1]
        counts[kind] = counts.get(kind, 0) + 1
        for sink in self.sinks:
            sink(event)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events the ring evicted (0 without a ring): a bounded deque
        evicts only when full, so every event recorded but not kept."""
        if not self._ring.maxlen:
            return 0
        return sum(self.counts.values()) - len(self._ring)

    def events(self) -> Iterator[TraceEvent]:
        """The retained events, oldest first."""
        return iter(self._ring)

    def event_dicts(self) -> List[Dict[str, object]]:
        """All retained events flattened (the exporters' input)."""
        return [as_dict(event) for event in self._ring]

    def summary(self) -> Dict[str, object]:
        """Small, picklable digest for reports."""
        return {
            "events": len(self._ring),
            "recorded": sum(self.counts.values()),
            "dropped": self.dropped,
            "by_kind": dict(sorted(self.counts.items())),
        }
