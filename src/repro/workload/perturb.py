"""Trace perturbation for fault scenarios.

Applies the *workload-shaping* injectors of a
:class:`repro.faults.scenario.FaultScenario` to already-generated
traces:

* flash crowds replicate (or thin) queries inside the window;
* hotspot shifts rotate query item ids from a point in time on;
* update storms / outages regenerate every item's in-window
  arrivals, which turns the periodic :class:`UpdateTrace` into an
  :class:`ExplicitUpdateTrace` carrying the event list verbatim.

All randomness is drawn from named ``fault-*`` substreams of the run's
:class:`~repro.sim.rng.RandomStreams`, disjoint from every base
workload stream — so perturbation is seed-reproducible and leaves the
base generation untouched.  The base traces are built first and then
perturbed (the update trace is correlated against the *base* access
histogram, so a flash crowd stresses the correlation structure instead
of regenerating it).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Tuple

from repro.sim.rng import RandomStreams
from repro.sim.stats import ordered_sum
from repro.workload.queries import QuerySpec, QueryTrace
from repro.workload.updates import ItemUpdateSpec, UpdateTrace

if TYPE_CHECKING:  # pragma: no cover - layering: faults sits above workload
    from repro.faults.scenario import FaultScenario, FlashCrowd, UpdateStorm


@dataclasses.dataclass
class ExplicitUpdateTrace(UpdateTrace):
    """An update trace whose arrivals are an explicit event list.

    Window perturbations (storms, outages) break strict periodicity, so
    the per-item ``(count, period, phase)`` form can no longer express
    the stream.  The item specs are retained unchanged — they carry the
    *ideal* periods and execution times the server's item table is
    built from (a bursting source does not change an item's ideal
    refresh period) — while :meth:`arrival_events` returns the stored
    list.
    """

    events: List[Tuple[float, int]] = dataclasses.field(default_factory=list)

    def arrival_events(self) -> List[Tuple[float, int]]:
        return list(self.events)

    def total_updates(self) -> int:
        return len(self.events)

    def per_item_counts(self) -> List[int]:
        counts = [0] * len(self.items)
        for _, item_id in self.events:
            counts[item_id] += 1
        return counts

    def utilization(self) -> float:
        if self.horizon <= 0:
            return 0.0
        exec_by_item = [item.exec_time for item in self.items]
        demand = ordered_sum(exec_by_item[item_id] for _, item_id in self.events)
        return demand / self.horizon


def _apply_flash_crowd(
    queries: List[QuerySpec],
    crowd: "FlashCrowd",
    index: int,
    streams: RandomStreams,
    horizon: float,
) -> List[QuerySpec]:
    """Replicate (multiplier > 1) or thin (multiplier < 1) the queries
    arriving inside the crowd window."""
    rng = streams.stream(f"fault-flash-{index}")
    multiplier = crowd.multiplier
    out: List[QuerySpec] = []
    for query in queries:
        in_window = crowd.start <= query.arrival < crowd.end
        if not in_window:
            out.append(query)
            continue
        if multiplier >= 1.0:
            out.append(query)
            extra = multiplier - 1.0
            copies = int(extra)
            if rng.random() < extra - copies:
                copies += 1
            window_end = min(crowd.end, horizon)
            for _ in range(copies):
                arrival = rng.uniform(crowd.start, window_end)
                out.append(dataclasses.replace(query, arrival=arrival))
        else:
            if rng.random() < multiplier:
                out.append(query)
    return out


def perturb_query_trace(
    trace: QueryTrace,
    scenario: "FaultScenario",
    streams: RandomStreams,
) -> QueryTrace:
    """Apply flash crowds and hotspot shifts to a query trace.

    Returns a new trace (the input is never mutated) with queries
    re-sorted by arrival — the runner's lazy arrival feeder requires a
    time-ordered stream.  Ties keep the pre-sort order (Python's sort
    is stable), so the result is deterministic.
    """
    queries = list(trace.queries)
    for index, crowd in enumerate(scenario.flash_crowds):
        queries = _apply_flash_crowd(queries, crowd, index, streams, trace.horizon)
    for shift in scenario.hotspot_shifts:
        rotation = shift.rotation % trace.n_items
        if rotation == 0:
            continue
        n_items = trace.n_items
        queries = [
            dataclasses.replace(
                query,
                items=tuple((item + rotation) % n_items for item in query.items),
            )
            if query.arrival >= shift.at
            else query
            for query in queries
        ]
    queries.sort(key=lambda query: query.arrival)
    return QueryTrace(
        name=f"{trace.name}+{scenario.name}",
        horizon=trace.horizon,
        n_items=trace.n_items,
        queries=queries,
    )


def _perturb_item_events(
    item: ItemUpdateSpec,
    storms: Tuple["UpdateStorm", ...],
    streams: RandomStreams,
    horizon: float,
) -> List[float]:
    """One item's arrival times with every storm applied.

    Base arrivals inside a storm window are removed; unless the storm
    is an outage, the window is refilled with arrivals at the overridden
    period, phase-jittered per item from the storm's named substream so
    items do not beat in lockstep.  Later storms see the output of
    earlier ones (declaration order matters and is part of the
    fingerprint).
    """
    times = list(item.arrival_times(horizon))
    for index, storm in enumerate(storms):
        times = [t for t in times if not storm.start <= t < storm.end]
        if storm.is_outage:
            continue
        new_period = item.period * storm.period_factor
        window_end = min(storm.end, horizon)
        if new_period <= 0 or storm.start >= window_end:
            continue
        rng = streams.stream(f"fault-storm-{index}-item-{item.item_id}")
        t = storm.start + rng.uniform(0.0, new_period)
        while t < window_end:
            times.append(t)
            t += new_period
    times.sort()
    return times


def perturb_update_trace(
    trace: UpdateTrace,
    scenario: "FaultScenario",
    streams: RandomStreams,
) -> UpdateTrace:
    """Apply update storms / outages to an update trace.

    Returns the input unchanged when no storm is configured; otherwise
    an :class:`ExplicitUpdateTrace` with the same item specs and the
    perturbed event list.
    """
    if not scenario.update_storms:
        return trace
    events: List[Tuple[float, int]] = []
    for item in trace.items:
        times = _perturb_item_events(item, scenario.update_storms, streams, trace.horizon)
        events.extend((t, item.item_id) for t in times)
    events.sort()
    return ExplicitUpdateTrace(
        name=f"{trace.name}+{scenario.name}",
        horizon=trace.horizon,
        items=list(trace.items),
        target_utilization=trace.target_utilization,
        events=events,
    )
