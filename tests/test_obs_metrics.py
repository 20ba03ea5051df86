"""Metrics registry: instrument semantics and event folding."""

import pytest

from repro.obs.metrics import (
    FRESHNESS_EDGES,
    LATENCY_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunMetrics,
    freeze_labels,
)
from repro.obs.trace import TraceRecorder


class TestFreezeLabels:
    def test_none_and_empty(self):
        assert freeze_labels(None) == ()
        assert freeze_labels({}) == ()

    def test_sorted_and_stringified(self):
        assert freeze_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))


class TestCounter:
    def test_inc(self):
        c = Counter("n", ())
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n", ()).inc(-1)


class TestGauge:
    def test_last_value_and_series(self):
        g = Gauge("g", ())
        assert g.value == 0.0
        g.set(1.0, 0.25)
        g.set(2.0, 0.75)
        assert g.value == 0.75
        assert g.as_dict()["samples"] == 2


class TestHistogram:
    def test_bucketization_and_cumulative(self):
        h = Histogram("h", (), edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # bisect_left: value == edge lands in that edge's bucket.
        assert h.bucket_counts == [2, 1, 1, 1]
        d = h.as_dict()
        assert d["count"] == 5
        assert d["sum"] == pytest.approx(106.0)
        assert d["min"] == 0.5
        assert d["max"] == 100.0

    def test_empty_has_null_min_max(self):
        d = Histogram("h", (), edges=(1.0,)).as_dict()
        assert d["count"] == 0
        assert d["min"] is None
        assert d["max"] is None

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", (), edges=())
        with pytest.raises(ValueError):
            Histogram("h", (), edges=(2.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("c", {"k": "v"})
        b = reg.counter("c", {"k": "v"})
        assert a is b
        assert len(reg) == 1

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("c", {"k": "1"}) is not reg.counter("c", {"k": "2"})
        assert len(reg) == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x", (1.0,))

    def test_edge_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", (1.0, 3.0))

    def test_snapshot_keys_and_kinds(self):
        reg = MetricsRegistry()
        reg.counter("a_total", {"k": "v"}).inc()
        reg.gauge("b").set(0.0, 1.0)
        snap = reg.snapshot()
        assert snap["a_total{k=v}"]["kind"] == "counter"
        assert snap["a_total{k=v}"]["value"] == 1.0
        assert snap["b"]["kind"] == "gauge"

    def test_snapshot_order_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert list(reg.snapshot()) == ["a", "z"]


def _event(kind, fields, time=1.0):
    """The event the generic :meth:`Recorder.emit` path records."""
    rec = TraceRecorder()
    rec.emit(time, kind, fields)
    [event] = rec.events()
    return event


class TestRunMetricsFolding:
    def test_query_outcome_success(self):
        rm = RunMetrics()
        rm.observe_event(
            _event(
                "query.outcome",
                {
                    "txn": 1,
                    "outcome": "success",
                    "arrival": 0.5,
                    "latency": 0.3,
                    "freshness": 0.9,
                    "restarts": 2,
                },
            )
        )
        snap = rm.snapshot()
        assert snap["repro_query_outcomes_total{outcome=success}"]["value"] == 1.0
        assert snap["repro_query_latency_seconds"]["count"] == 1
        assert snap["repro_query_freshness_ratio"]["count"] == 1
        assert snap["repro_query_restarts_total"]["value"] == 2.0

    def test_rejected_outcome_skips_histograms(self):
        rm = RunMetrics()
        rm.observe_event(
            _event(
                "query.outcome",
                {
                    "txn": 1,
                    "outcome": "rejected",
                    "arrival": 0.5,
                    "latency": 0.0,
                    "freshness": None,
                    "restarts": 0,
                },
            )
        )
        snap = rm.snapshot()
        assert snap["repro_query_outcomes_total{outcome=rejected}"]["value"] == 1.0
        assert "repro_query_latency_seconds" not in snap
        assert "repro_query_freshness_ratio" not in snap

    def test_lock_preempt_counts_victims(self):
        rm = RunMetrics()
        rm.observe_event(
            _event(
                "lock.preempt",
                {"txn": 9, "item": 2, "update": True, "victims": [1, 3, 5]},
            )
        )
        snap = rm.snapshot()
        assert snap["repro_lock_preemptions_total"]["value"] == 1.0
        assert snap["repro_lock_preempt_victims_total"]["value"] == 3.0

    def test_control_window_gauges_components(self):
        rm = RunMetrics()
        rm.observe_event(
            _event(
                "control.window",
                {
                    "usm": 0.42,
                    "samples": 20,
                    "signals": ["LAC"],
                    "c_flex": 1.25,
                    "update_load": 0.3,
                    "degraded_items": 4,
                    "ticket_threshold": -0.5,
                    "S": 0.8,
                    "R": 0.1,
                },
                time=10.0,
            )
        )
        snap = rm.snapshot()
        assert snap["repro_usm"]["value"] == 0.42
        assert snap["repro_c_flex"]["value"] == 1.25
        assert snap["repro_degraded_items"]["value"] == 4.0
        assert snap["repro_usm_component{component=S}"]["value"] == 0.8
        assert snap["repro_usm_component{component=R}"]["value"] == 0.1

    def test_control_window_none_usm_is_skipped(self):
        rm = RunMetrics()
        rm.observe_event(
            _event(
                "control.window",
                {
                    "usm": None,
                    "samples": 0,
                    "signals": [],
                    "c_flex": 1.0,
                    "update_load": 0.0,
                    "degraded_items": 0,
                    "ticket_threshold": 0.0,
                },
            )
        )
        assert "repro_usm" not in rm.snapshot()

    def test_counters_per_kind(self):
        rm = RunMetrics()
        rm.observe_event(_event("query.admit", {"txn": 1, "deadline": 1.0, "items": 2}))
        rm.observe_event(
            _event(
                "admission.decision",
                {"txn": 1, "admitted": True, "reason": "ok", "est": 0.0,
                 "endangered": 0, "c_flex": 1.0},
            )
        )
        rm.observe_event(
            _event("lock.wait", {"txn": 1, "item": 2, "update": False, "holders": [3]})
        )
        rm.observe_event(
            _event(
                "update.apply",
                {"item": 2, "txn": 5, "on_demand": True, "period": 2.0},
            )
        )
        rm.observe_event(_event("update.drop", {"item": 2, "period": 2.0}))
        rm.observe_event(
            _event("modulation.change", {"direction": "degrade", "items": (2, 4, 2)})
        )
        rm.observe_event(
            _event("modulation.change", {"direction": "upgrade", "items": [4]})
        )
        rm.observe_event(
            _event(
                "control.allocate",
                {"dominant": "R", "signals": ["LAC"], "usm": 0.1, "samples": 5,
                 "cost_R": 0.2},
            )
        )
        snap = rm.snapshot()
        assert snap["repro_query_admitted_total"]["value"] == 1.0
        assert snap["repro_admission_decisions_total{reason=ok}"]["value"] == 1.0
        assert snap["repro_lock_waits_total"]["value"] == 1.0
        assert snap["repro_updates_applied_total{on_demand=true}"]["value"] == 1.0
        assert snap["repro_updates_dropped_total"]["value"] == 1.0
        # One event per signal, counted per item it changed.
        assert (
            snap["repro_modulation_changes_total{direction=degrade}"]["value"] == 3.0
        )
        assert (
            snap["repro_modulation_changes_total{direction=upgrade}"]["value"] == 1.0
        )
        assert snap["repro_control_allocations_total{dominant=R}"]["value"] == 1.0

    def test_recorder_drives_sink(self):
        rm = RunMetrics()
        rec = TraceRecorder(capacity=4, sinks=[rm.observe_event])
        rec.query_admit(0.1, 1, 1.0, 2)
        rec.query_admit(0.2, 2, 1.0, 2)
        assert rm.snapshot()["repro_query_admitted_total"]["value"] == 2.0

    def test_edges_are_ascending(self):
        assert list(LATENCY_EDGES) == sorted(LATENCY_EDGES)
        assert list(FRESHNESS_EDGES) == sorted(FRESHNESS_EDGES)
