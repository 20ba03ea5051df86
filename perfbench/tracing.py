"""In-memory span tracing of the simulator's layers, from outside ``src/``.

The traced pass wraps the public entry points of each layer (plus the
private engine callbacks that would otherwise hide server work inside
the engine's self time) by replacing class and module attributes for
the duration of one pass, and restores every original afterwards.
Nothing in the package is edited: every hook lives in this file.

Each wrapped call records one span ``(name, start, end, parent)`` into
flat ``array`` buffers (24 bytes a span), so a paper-scale pass of a
few million calls stays in memory.  After the pass the spans are
folded into exact per-span call counts and per-layer *self* time: a
span's duration minus the part of it covered by its child spans.
Return values of a few calls (lock grants, admission verdicts,
degrade victims, forced routes) are folded into exact counters as
they return.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers in the order a query crosses them; every wrapped call belongs
#: to exactly one.  ``bench`` is the pass itself (harness glue).
LAYERS = (
    "bench",
    "workload",
    "experiments",
    "fleet",
    "sim",
    "db.server",
    "db.ready_queue",
    "db.locks",
    "core.admission",
    "core.um",
    "core.lbc",
    "obs",
)

Inspector = Callable[[object], None]

#: Restore marker for a patch that shadowed an inherited method.
_INHERITED = object()


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        inspect: Optional[Inspector] = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records one span per call."""
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        starts = self.start
        ends = self.end
        ids = self.name_id
        parents = self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if inspect is not None:
                inspect(result)
            return result

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        inspect: Optional[Inspector] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` is a module or a class; a method a class inherits is
        shadowed on that class and the shadow is deleted on restore.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        label = owner.__name__.rsplit(".", 1)[-1]  # type: ignore[attr-defined]
        name = f"{layer}:{label}.{attr}"
        if name in self.names:
            raise ValueError(f"{name} is already traced")
        setattr(owner, attr, self.wrap(original, name, layer, inspect))
        self._patches.append((owner, attr, original if own else _INHERITED))

    def restore(self) -> None:
        """Undo every patch, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- folding --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name_id)

    def call_counts(self) -> Dict[str, int]:
        """Exact calls per span name (names never called are 0)."""
        by_id = Counter(self.name_id)
        return {name: by_id.get(nid, 0) for nid, name in enumerate(self.names)}

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the children's durations."""
        duration = self.durations()
        parents = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        covered = np.bincount(parents + 1, weights=duration, minlength=len(duration) + 1)
        return duration - covered[1:]

    def self_by_name(self) -> Dict[str, float]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        per_name = np.bincount(ids, weights=self.self_times(), minlength=len(self.names))
        return {name: float(per_name[nid]) for nid, name in enumerate(self.names)}

    def self_by_layer(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for seconds, layer in zip(self.self_by_name().values(), self.layer_of):
            totals[layer] += seconds
        return totals

    def inclusive_by_name(self) -> Dict[str, float]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        per_name = np.bincount(ids, weights=self.durations(), minlength=len(self.names))
        return {name: float(per_name[nid]) for nid, name in enumerate(self.names)}


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reads.

    Must run before the pass builds its substrates: the server and the
    arrival feeder bind methods once, at construction.
    """
    from repro.core import admission, controller, lottery, modulation, tickets, unit
    from repro.db import locks, ready_queue, server
    from repro.experiments import runner, sweep
    from repro.fleet import controller as fleet_controller
    from repro.fleet import runner as fleet_runner
    from repro.fleet import substrate
    from repro.obs import attrib, trace
    from repro.sim import engine
    from repro.workload import cache

    counters = tracer.counters

    def lock_result(result):
        status = result.status
        if status is locks.LockStatus.GRANTED:
            counters["db.locks.granted"] += 1
        elif status is locks.LockStatus.CONFLICT:
            counters["db.locks.victims"] += len(result.victims)

    def admission_result(result):
        if result.admitted:
            counters["core.admission.admitted"] += 1

    def degrade_result(result):
        counters["core.um.victims"] += len(result)

    def grid_result(result):
        counters["experiments.sweep.cells"] += len(result)

    def route_result(result):
        counters["fleet.forced_routes"] += sum(result.forced)

    hooks = [
        (cache.WorkloadCache, "get", "workload", None),
        (runner, "build_workload", "workload", None),
        (runner, "run_experiment", "experiments", None),
        (sweep, "run_experiment", "experiments", None),
        (sweep, "run_grid", "experiments", grid_result),
        (fleet_runner, "run_fleet", "fleet", None),
        (fleet_runner, "build_partition", "fleet", None),
        (fleet_runner, "route_queries", "fleet", route_result),
        (fleet_runner, "build_shard_specs", "fleet", None),
        (fleet_runner, "merge_reports", "fleet", None),
        (substrate.ShardRun, "__init__", "fleet", None),
        (substrate.ShardRun, "run_to", "fleet", None),
        (substrate.ShardRun, "finish", "fleet", None),
        (fleet_controller.GlobalCoordinator, "plan", "fleet", None),
        (engine.Simulator, "run", "sim", None),
        (engine.Simulator, "schedule_token", "sim", None),
        (engine.Simulator, "cancel_token", "sim", None),
        (engine.Simulator, "schedule_batch", "sim", None),
        (engine.Simulator, "schedule", "sim", None),
        (engine.Simulator, "peek_key", "sim", None),
        (engine.Simulator, "fire_inline", "sim", None),
        (server.Server, "submit_query", "db.server", None),
        (server.Server, "source_update_run", "db.server", None),
        (server.Server, "_complete", "db.server", None),
        (server.Server, "_deadline_abort", "db.server", None),
        (ready_queue.ReadyQueue, "push", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "pop", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "remove", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "peek", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "backlog_ahead_of", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "query_backlog_ahead_of", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "query_backlog_before", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "query_backlog", "db.ready_queue", None),
        (ready_queue.ReadyQueue, "update_backlog", "db.ready_queue", None),
        (locks.LockManager, "request", "db.locks", lock_result),
        (locks.LockManager, "release_all", "db.locks", None),
        (locks.LockManager, "cancel_wait", "db.locks", None),
        (admission.AdmissionController, "decide", "core.admission", admission_result),
        (modulation.UpdateFrequencyModulator, "degrade", "core.um", degrade_result),
        (modulation.UpdateFrequencyModulator, "upgrade_all", "core.um", None),
        (tickets.TicketBook, "on_query_access", "core.um", None),
        (tickets.TicketBook, "on_update", "core.um", None),
        (lottery.LotteryScheduler, "sample", "core.um", None),
        (lottery.LotteryScheduler, "rebuild", "core.um", None),
        (unit.UnitPolicy, "_control_tick", "core.lbc", None),
        (controller.LoadBalancingController, "allocate", "core.lbc", None),
        (controller.LoadBalancingController, "check_drop", "core.lbc", None),
        (runner, "build_spans", "obs", None),
        (substrate, "build_spans", "obs", None),
        (attrib, "attrib_report", "obs", None),
    ]
    # Every typed emit funnels through the recorder; wrapping the
    # methods on TraceRecorder (shadowing the base-class helpers)
    # times event construction and the ring append together.
    for attr in (
        "emit", "sched_enqueue", "sched_dispatch", "sched_park",
        "query_admit", "query_outcome", "admission_decision", "lock_wait",
        "lock_grant", "lock_preempt", "update_apply", "update_drop",
        "modulation_change", "control_allocate", "control_window",
        "fleet_route", "fleet_rebalance",
    ):
        hooks.append((trace.TraceRecorder, attr, "obs", None))
    try:
        for owner, attr, layer, inspect in hooks:
            tracer.patch(owner, attr, layer, inspect)
    except BaseException:
        tracer.restore()
        raise
