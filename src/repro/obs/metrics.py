"""Metrics registry: counters, gauges, histograms with fixed buckets.

Instruments are keyed by ``(name, frozen label tuple)`` so a family
like ``repro_query_outcomes_total`` fans out per ``outcome=...`` label
without string formatting on the hot path.  Gauges sample into the
existing :class:`repro.sim.stats.TimeSeries` and histograms fold their
observations into :class:`repro.sim.stats.OnlineStats`, so the obs
layer reuses the simulator's own statistics machinery rather than
growing a parallel one.

:class:`RunMetrics` is the domain-level sink: it owns a registry and
knows how to fold each trace-event kind (see :mod:`repro.obs.trace`)
into the right instruments.  It is driven by the trace recorder as
events are emitted, so metrics cover the whole run even when the trace
ring buffer wraps.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.obs import trace as _trace
from repro.sim.stats import OnlineStats, TimeSeries

#: Frozen label set: sorted ``(key, value)`` pairs.
LabelTuple = Tuple[Tuple[str, str], ...]

#: Fixed bucket edges for query latency (seconds).  Chosen around the
#: calibrated mean query service time (~50 ms) and typical deadlines.
LATENCY_EDGES: Tuple[float, ...] = (
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Fixed bucket edges for freshness (a ratio in [0, 1]).
FRESHNESS_EDGES: Tuple[float, ...] = (
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    0.95,
    1.0,
)


def freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelTuple:
    """Canonicalize a label mapping to a hashable, sorted tuple."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge:
    """Point-in-time value, sampled into a :class:`TimeSeries`.

    ``set`` takes the *sim* time of the sample so the series doubles as
    a plottable trajectory (e.g. USM per controller window).
    """

    __slots__ = ("name", "labels", "series")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels
        self.series = TimeSeries(name=name)

    def set(self, time: float, value: float) -> None:
        self.series.append(time, value)

    @property
    def value(self) -> float:
        last = self.series.last()
        return last[1] if last is not None else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "samples": len(self.series),
            "mean": self.series.mean(),
        }


class Histogram:
    """Fixed-bucket histogram plus streaming moments.

    ``edges`` are the inclusive upper bounds of the finite buckets; one
    implicit ``+Inf`` bucket catches the overflow.  The running
    count/mean/min/max come from an :class:`OnlineStats`.
    """

    __slots__ = ("name", "labels", "edges", "bucket_counts", "stats", "total")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelTuple, edges: Tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("edges must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.stats = OnlineStats()
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1
        self.stats.add(value)
        self.total += value

    def as_dict(self) -> Dict[str, object]:
        stats = self.stats
        return {
            "count": stats.count,
            "sum": self.total,
            "mean": stats.mean,
            "min": stats.minimum if stats.count else None,
            "max": stats.maximum if stats.count else None,
            "edges": list(self.edges),
            "buckets": list(self.bucket_counts),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for every instrument in a run."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelTuple], Instrument] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = (name, freeze_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Counter(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, Counter):
            raise TypeError(f"{name} already registered as {inst.kind}")
        return inst

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        key = (name, freeze_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Gauge(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, Gauge):
            raise TypeError(f"{name} already registered as {inst.kind}")
        return inst

    def histogram(
        self,
        name: str,
        edges: Tuple[float, ...],
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = (name, freeze_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Histogram(name, key[1], tuple(edges))
            self._instruments[key] = inst
        elif not isinstance(inst, Histogram):
            raise TypeError(f"{name} already registered as {inst.kind}")
        elif inst.edges != tuple(edges):
            raise ValueError(f"{name} already registered with different edges")
        return inst

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> Iterable[Instrument]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def snapshot(self) -> Dict[str, object]:
        """Deterministic, JSON-friendly dump of every instrument."""
        out: Dict[str, object] = {}
        for inst in self.instruments():
            label_part = ",".join(f"{k}={v}" for k, v in inst.labels)
            key = f"{inst.name}{{{label_part}}}" if label_part else inst.name
            entry = inst.as_dict()
            entry["kind"] = inst.kind
            out[key] = entry
        return out


class RunMetrics:
    """Fold trace events into a metrics registry.

    Passed to :class:`repro.obs.trace.TraceRecorder` as its ``metrics``
    sink; every emitted event lands here exactly once, in order.

    Each event kind has one handler, and each ``(instrument, label
    value)`` pair is resolved through the registry once, on first use,
    then reused: the per-event path never freezes a label set.  Kinds
    without a handler (the ``sched.*`` transitions, lock grants, fleet
    routing) cost one dict lookup.
    """

    __slots__ = ("registry", "_counters", "_gauges", "_histograms")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # (instrument name, label value) -> the registry's instrument.
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def observe_event(self, event: _trace.TraceEvent) -> None:
        handler = self._HANDLERS.get(event[1])
        if handler is not None:
            handler(self, event)

    # -- resolved instruments -------------------------------------------

    def _counter(self, name: str, label: str = "", value: str = "") -> Counter:
        inst = self._counters.get((name, value))
        if inst is None:
            inst = self.registry.counter(name, {label: value} if label else None)
            self._counters[(name, value)] = inst
        return inst

    def _gauge(self, name: str, label: str = "", value: str = "") -> Gauge:
        inst = self._gauges.get((name, value))
        if inst is None:
            inst = self.registry.gauge(name, {label: value} if label else None)
            self._gauges[(name, value)] = inst
        return inst

    def _histogram(self, name: str, edges: Tuple[float, ...]) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self.registry.histogram(name, edges)
            self._histograms[name] = inst
        return inst

    # -- per-kind handlers ----------------------------------------------
    #
    # Each handler unpacks the event tuple in ``FIELDS[kind]`` order.

    def _query_outcome(self, event: _trace.TraceEvent) -> None:
        _, _, _, outcome, _, latency, freshness, restarts = event
        self._counter("repro_query_outcomes_total", "outcome", str(outcome)).inc()
        if outcome != "rejected":
            if isinstance(latency, (int, float)):
                self._histogram(
                    "repro_query_latency_seconds", LATENCY_EDGES
                ).observe(float(latency))
            if isinstance(freshness, (int, float)):
                self._histogram(
                    "repro_query_freshness_ratio", FRESHNESS_EDGES
                ).observe(float(freshness))
            if isinstance(restarts, (int, float)) and restarts:
                self._counter("repro_query_restarts_total").inc(float(restarts))

    def _query_admit(self, event: _trace.TraceEvent) -> None:
        self._counter("repro_query_admitted_total").inc()

    def _admission_decision(self, event: _trace.TraceEvent) -> None:
        _, _, _, _, reason, _, _, _ = event
        self._counter("repro_admission_decisions_total", "reason", str(reason)).inc()

    def _lock_wait(self, event: _trace.TraceEvent) -> None:
        self._counter("repro_lock_waits_total").inc()

    def _lock_preempt(self, event: _trace.TraceEvent) -> None:
        _, _, _, _, _, victims = event
        self._counter("repro_lock_preemptions_total").inc()
        if isinstance(victims, list):
            self._counter("repro_lock_preempt_victims_total").inc(len(victims))

    def _update_apply(self, event: _trace.TraceEvent) -> None:
        _, _, _, _, on_demand, _ = event
        label = "true" if on_demand else "false"
        self._counter("repro_updates_applied_total", "on_demand", label).inc()

    def _update_drop(self, event: _trace.TraceEvent) -> None:
        self._counter("repro_updates_dropped_total").inc()

    def _modulation_change(self, event: _trace.TraceEvent) -> None:
        _, _, direction, items = event
        self._counter(
            "repro_modulation_changes_total", "direction", str(direction)
        ).inc(len(items))

    def _control_allocate(self, event: _trace.TraceEvent) -> None:
        _, _, dominant, _, _, _, _ = event
        self._counter(
            "repro_control_allocations_total", "dominant", str(dominant)
        ).inc()

    def _fault_start(self, event: _trace.TraceEvent) -> None:
        _, _, _, fault, _ = event
        self._counter("repro_fault_windows_total", "fault", str(fault)).inc()

    def _control_window(self, event: _trace.TraceEvent) -> None:
        (time, _, usm, _, _, c_flex, update_load, degraded_items,
         ticket_threshold, components) = event
        if isinstance(usm, (int, float)):
            self._gauge("repro_usm").set(time, float(usm))
        for name, value in (
            ("repro_c_flex", c_flex),
            ("repro_update_load", update_load),
            ("repro_degraded_items", degraded_items),
            ("repro_ticket_threshold", ticket_threshold),
        ):
            if isinstance(value, (int, float)):
                self._gauge(name).set(time, float(value))
        for key, value in components.items():
            if isinstance(value, (int, float)):
                self._gauge("repro_usm_component", "component", key).set(
                    time, float(value)
                )

    _HANDLERS: Dict[str, Callable[["RunMetrics", _trace.TraceEvent], None]] = {
        _trace.QUERY_OUTCOME: _query_outcome,
        _trace.QUERY_ADMIT: _query_admit,
        _trace.ADMISSION_DECISION: _admission_decision,
        _trace.LOCK_WAIT: _lock_wait,
        _trace.LOCK_PREEMPT: _lock_preempt,
        _trace.UPDATE_APPLY: _update_apply,
        _trace.UPDATE_DROP: _update_drop,
        _trace.MODULATION_CHANGE: _modulation_change,
        _trace.CONTROL_ALLOCATE: _control_allocate,
        _trace.FAULT_START: _fault_start,
        _trace.CONTROL_WINDOW: _control_window,
    }

    def snapshot(self) -> Dict[str, object]:
        return self.registry.snapshot()
