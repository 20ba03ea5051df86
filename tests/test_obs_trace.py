"""Trace recorder: the event schema, ring bounds, null path."""

import gc
import json
import platform
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.obs.config import ObsConfig
from repro.obs.trace import (
    ALL_KINDS,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceRecorder,
    as_dict,
    from_dict,
)


class TestTraceEvent:
    def test_as_dict_flattens(self):
        rec = TraceRecorder()
        rec.query_admit(1.5, 3, 2.0, 1)
        [event] = rec.events()
        assert event == (1.5, "query.admit", 3, 2.0, 1)
        assert as_dict(event) == {
            "t": 1.5,
            "kind": "query.admit",
            "txn": 3,
            "deadline": 2.0,
            "items": 1,
        }

    def test_slots(self):
        """A recorded event is a plain tuple: no per-event attributes."""
        rec = TraceRecorder()
        rec.update_drop(0.0, 1, 1.0)
        [event] = rec.events()
        assert type(event) is tuple
        with pytest.raises(AttributeError):
            event.extra = 1


class TestNullRecorder:
    def test_disabled_and_empty(self):
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.enabled is False
        assert len(NULL_RECORDER) == 0
        assert list(NULL_RECORDER.events()) == []

    def test_typed_hooks_are_noops(self):
        rec = NullRecorder()
        rec.query_admit(1.0, 1, 2.0, 1)
        rec.query_outcome(1.0, 1, "success", 0.5, 0.5, 1.0, 0)
        rec.lock_preempt(1.0, 1, 2, False, [3])
        rec.control_window(1.0, {"S": 1.0}, 0.5, 10, ["LAC"], 1.0, 0.2, 0, 0.0)
        rec.fault_start(2.0, "flash-crowd-0", "flash-crowd", {"multiplier": 3.0})
        rec.fault_end(3.0, "flash-crowd-0", "flash-crowd")
        assert len(rec) == 0


class TestTraceRecorder:
    def test_enabled_class_attribute(self):
        assert TraceRecorder.enabled is True

    def test_typed_hooks_record_kinds(self):
        rec = TraceRecorder()
        rec.query_admit(0.1, 1, 1.0, 2)
        rec.query_outcome(0.3, 1, "success", 0.1, 0.2, 0.95, 0)
        rec.admission_decision(0.1, 1, True, "ok", 0.0, 0, 1.0)
        rec.sched_enqueue(0.1, 1, "admit")
        rec.sched_dispatch(0.15, 1)
        rec.sched_park(0.18, 1)
        rec.lock_preempt(0.2, 2, 5, True, [1])
        rec.update_apply(0.4, 5, 7, False, 2.0)
        rec.update_drop(0.5, 5, 2.0)
        rec.modulation_change(0.6, "degrade", (5, 2, 5))
        rec.control_allocate(1.0, {"R": 0.1}, "R", ["LAC"], 0.4, 20)
        rec.control_window(1.0, {"S": 0.8}, 0.4, 20, ["LAC"], 1.1, 0.3, 2, -0.5)
        rec.fault_start(2.0, "server-slowdown-0", "server-slowdown", {"rate": 0.5})
        rec.fault_end(3.0, "server-slowdown-0", "server-slowdown")
        rec.fleet_route(0.05, 1, 0, "freshness", [0, 1], 0.9, False)
        rec.fleet_rebalance(4.0, 0, 1.1, 1.0, 1.1, "degrade")
        assert sorted(rec.counts) == sorted(ALL_KINDS)
        assert len(rec) == len(ALL_KINDS)
        # Events are retained in emit order.
        kinds = [event[1] for event in rec.events()]
        assert kinds[0] == "query.admit"
        assert kinds[-1] == "fleet.rebalance"

    def test_ring_evicts_oldest_and_counts_drops(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.update_drop(float(i), i, 1.0)
        assert len(rec) == 3
        assert rec.dropped == 2
        # Oldest evicted: the retained events are the *tail* of the run.
        assert [event["item"] for event in rec.event_dicts()] == [2, 3, 4]
        # counts cover everything recorded, not just what is retained.
        assert rec.counts["update.drop"] == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_config_capacity_must_be_positive(self):
        """Checked at the config, so a run that builds no ring still
        rejects it."""
        with pytest.raises(ValueError):
            ObsConfig(capacity=0)

    def test_summary(self):
        rec = TraceRecorder(capacity=2)
        rec.update_drop(0.0, 1, 1.0)
        rec.query_admit(0.1, 1, 1.0, 1)
        rec.update_drop(0.2, 2, 1.0)
        summary = rec.summary()
        assert summary["events"] == 2
        assert summary["recorded"] == 3
        assert summary["dropped"] == 1
        assert summary["by_kind"] == {"query.admit": 1, "update.drop": 2}

    def test_sinks_see_every_event(self):
        seen = []
        kinds = []
        rec = TraceRecorder(
            capacity=1, sinks=[seen.append, lambda event: kinds.append(event[1])]
        )
        rec.update_drop(0.0, 1, 1.0)
        rec.update_drop(0.1, 2, 1.0)  # evicts the first from the ring
        assert kinds == ["update.drop", "update.drop"]
        assert seen == [(0.0, "update.drop", 1, 1.0), (0.1, "update.drop", 2, 1.0)]

    def test_base_recorder_emit_is_noop(self):
        # The Recorder base class is safe to use directly (emit discards).
        rec = Recorder()
        rec.query_admit(0.0, 1, 1.0, 1)
        assert rec.enabled is False


class TestRingAsSink:
    @given(
        stream=st.lists(
            st.tuples(st.sampled_from(ALL_KINDS), st.integers(0, 9)), max_size=48
        ),
        capacity=st.one_of(st.none(), st.integers(1, 64)),
    )
    def test_ring_is_one_more_sink(self, stream, capacity):
        """The ring keeps the stream's last ``capacity`` events and
        counts the rest as dropped (none without a ring); the other
        sinks and the counts do not depend on whether there is a ring."""
        seen, seen_bare = [], []
        rec = TraceRecorder(capacity=capacity, sinks=[seen.append])
        bare = TraceRecorder(capacity=None, sinks=[seen_bare.append])
        for index, (kind, value) in enumerate(stream):
            for recorder in (rec, bare):
                recorder.emit(float(index), kind, {"txn": value})
        assert seen == seen_bare
        assert len(seen) == len(stream)
        retained = list(rec.events())
        assert retained == (seen[-capacity:] if capacity else [])
        dropped = len(seen) - len(retained) if capacity else 0
        assert rec.dropped == dropped
        by_kind = dict(sorted(Counter(event[1] for event in seen).items()))
        for recorder, kept, evicted in ((rec, retained, dropped), (bare, [], 0)):
            assert len(recorder) == len(kept)
            assert recorder.summary() == {
                "events": len(kept),
                "recorded": len(seen),
                "dropped": evicted,
                "by_kind": by_kind,
            }


#: One sample call of every typed hook (all 16 kinds), with the dict
#: the former generic ``emit`` path recorded for it, key order included.
#: Each row is ``(hook, case, args, expected)``; ``hook-case`` is the
#: row's test id, so adding or deleting a row renames no other test.
HOOKS = [
    ("query_admit", "basic", (0.1, 1, 1.0, 2),
     {"t": 0.1, "kind": "query.admit", "txn": 1, "deadline": 1.0, "items": 2}),
    ("query_outcome", "success", (0.3, 1, "success", 0.1, 0.2, 0.95, 0),
     {"t": 0.3, "kind": "query.outcome", "txn": 1, "outcome": "success",
      "arrival": 0.1, "latency": 0.2, "freshness": 0.95, "restarts": 0}),
    ("query_outcome", "rejected", (0.3, 2, "rejected", 0.1, 0.0, None, 0),
     {"t": 0.3, "kind": "query.outcome", "txn": 2, "outcome": "rejected",
      "arrival": 0.1, "latency": 0.0, "freshness": None, "restarts": 0}),
    ("sched_enqueue", "admit", (0.1, 1, "admit"),
     {"t": 0.1, "kind": "sched.enqueue", "txn": 1, "cause": "admit"}),
    ("sched_dispatch", "basic", (0.15, 1),
     {"t": 0.15, "kind": "sched.dispatch", "txn": 1}),
    ("sched_park", "basic", (0.18, 1),
     {"t": 0.18, "kind": "sched.park", "txn": 1}),
    ("modulation_change", "degrade", (0.6, "degrade", (5, 2, 5)),
     {"t": 0.6, "kind": "modulation.change", "direction": "degrade",
      "items": (5, 2, 5)}),
    ("modulation_change", "upgrade", (0.7, "upgrade", (2, 5)),
     {"t": 0.7, "kind": "modulation.change", "direction": "upgrade",
      "items": (2, 5)}),
    ("admission_decision", "rejected", (0.1, 1, False, "est", 0.4, 2, 1.0),
     {"t": 0.1, "kind": "admission.decision", "txn": 1, "admitted": False,
      "reason": "est", "est": 0.4, "endangered": 2, "c_flex": 1.0}),
    ("update_apply", "on-demand", (0.45, 6, 8, True, 1.0),
     {"t": 0.45, "kind": "update.apply", "item": 6, "txn": 8, "on_demand": True,
      "period": 1.0}),
    ("lock_preempt", "query-requester", (0.3, 4, 6, False, [2]),
     {"t": 0.3, "kind": "lock.preempt", "txn": 4, "item": 6, "update": False,
      "victims": [2]}),
    ("lock_preempt", "update-requester", (0.2, 2, 5, True, [1, 3]),
     {"t": 0.2, "kind": "lock.preempt", "txn": 2, "item": 5, "update": True,
      "victims": [1, 3]}),
    ("update_apply", "periodic", (0.4, 5, 7, False, 2.0),
     {"t": 0.4, "kind": "update.apply", "item": 5, "txn": 7, "on_demand": False,
      "period": 2.0}),
    ("update_drop", "basic", (0.5, 5, 2.0),
     {"t": 0.5, "kind": "update.drop", "item": 5, "period": 2.0}),
    ("control_allocate", "basic", (1.0, {"R": 0.1, "F_m": 0.2}, "R", ["LAC"], 0.4, 20),
     {"t": 1.0, "kind": "control.allocate", "dominant": "R", "signals": ["LAC"],
      "usm": 0.4, "samples": 20, "cost_F_m": 0.2, "cost_R": 0.1}),
    ("control_window", "basic",
     (1.0, {"S": 0.8, "R": 0.1}, 0.4, 20, ["LAC"], 1.1, 0.3, 2, -0.5),
     {"t": 1.0, "kind": "control.window", "usm": 0.4, "samples": 20,
      "signals": ["LAC"], "c_flex": 1.1, "update_load": 0.3,
      "degraded_items": 2, "ticket_threshold": -0.5, "R": 0.1, "S": 0.8}),
    ("fault_start", "slowdown",
     (2.0, "server-slowdown-0", "server-slowdown", {"rate": 0.5, "at": 1.0}),
     {"t": 2.0, "kind": "fault.start", "label": "server-slowdown-0",
      "fault": "server-slowdown", "at": 1.0, "rate": 0.5}),
    ("fault_end", "slowdown", (3.0, "server-slowdown-0", "server-slowdown"),
     {"t": 3.0, "kind": "fault.end", "label": "server-slowdown-0",
      "fault": "server-slowdown"}),
    ("fleet_route", "freshness", (0.05, 1, 0, "freshness", [0, 1], 0.9, False),
     {"t": 0.05, "kind": "fleet.route", "txn": 1, "shard": 0,
      "policy": "freshness", "candidates": [0, 1], "est_freshness": 0.9,
      "forced": False}),
    ("fleet_rebalance", "degrade", (4.0, 0, 1.1, 1.0, 1.1, "degrade"),
     {"t": 4.0, "kind": "fleet.rebalance", "shard": 0, "flex_factor": 1.1,
      "c_flex_before": 1.0, "c_flex_after": 1.1, "modulate": "degrade"}),
]


class TestTypedEvents:
    def test_table_covers_every_kind(self):
        assert {expected["kind"] for _, _, _, expected in HOOKS} == set(ALL_KINDS)

    def test_case_ids_are_unique(self):
        ids = [f"{hook}-{case}" for hook, case, _, _ in HOOKS]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize(
        "hook,args,expected",
        [(hook, args, expected) for hook, _, args, expected in HOOKS],
        ids=[f"{hook}-{case}" for hook, case, _, _ in HOOKS],
    )
    def test_typed_event_matches_generic_emit(self, hook, args, expected):
        """A hook's event flattens to the dict the generic emit path
        recorded, key order included; emit and from_dict rebuild it."""
        rec = TraceRecorder()
        getattr(rec, hook)(*args)
        [event] = rec.events()
        assert list(as_dict(event).items()) == list(expected.items())
        assert from_dict(as_dict(event)) == event
        fields = {k: v for k, v in expected.items() if k not in ("t", "kind")}
        generic = TraceRecorder()
        generic.emit(expected["t"], expected["kind"], fields)
        assert list(generic.events()) == [event]

    def test_modulation_items_round_trip_through_jsonl(self):
        """A JSONL line carries a signal's item ids as a list; parsing it
        back gives the same event with ``items`` as that list."""
        rec = TraceRecorder()
        rec.modulation_change(0.6, "degrade", (5, 2, 5))
        [event] = rec.events()
        line = json.dumps(as_dict(event), sort_keys=True, separators=(",", ":"))
        assert line == '{"direction":"degrade","items":[5,2,5],"kind":"modulation.change","t":0.6}'
        parsed = from_dict(json.loads(line))
        assert parsed == (0.6, "modulation.change", "degrade", [5, 2, 5])

    def test_unnamed_kind_keeps_its_fields_in_order(self):
        rec = TraceRecorder()
        rec.emit(1.0, "custom.kind", {"b": 1, "a": [2]})
        [event] = rec.events()
        assert list(as_dict(event).items()) == [
            ("t", 1.0), ("kind", "custom.kind"), ("b", 1), ("a", [2]),
        ]
        assert from_dict(as_dict(event)) == event

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="tuple untracking is a CPython collector detail",
    )
    def test_plain_value_events_are_not_gc_tracked(self):
        """Events holding only plain values cost the collector nothing
        to re-walk once a collection has seen them."""
        rec = TraceRecorder()
        for hook, _, args, _ in HOOKS:
            if hook.startswith(("query_", "sched_", "modulation_")):
                getattr(rec, hook)(*args)
        gc.collect()
        events = list(rec.events())
        assert len(events) == 8
        assert not any(gc.is_tracked(event) for event in events)
