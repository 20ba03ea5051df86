"""Trace recorder: typed events, ring bounds, null path."""

import pytest

from repro.obs.trace import (
    ALL_KINDS,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceEvent,
    TraceRecorder,
)


class TestTraceEvent:
    def test_as_dict_flattens(self):
        event = TraceEvent(1.5, "query.admit", {"txn": 3, "deadline": 2.0})
        assert event.as_dict() == {
            "t": 1.5,
            "kind": "query.admit",
            "txn": 3,
            "deadline": 2.0,
        }

    def test_slots(self):
        event = TraceEvent(0.0, "update.drop", {})
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
        rec.lock_wait(1.0, 1, 2, False, [3])
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
        rec.lock_wait(0.2, 2, 5, True, [1])
        rec.lock_grant(0.25, 2, 5)
        rec.lock_preempt(0.2, 2, 5, True, [1])
        rec.update_apply(0.4, 5, 7, False, 2.0)
        rec.update_drop(0.5, 5, 2.0)
        rec.modulation_change(0.6, 5, "degrade", 2.0, 2.2)
        rec.control_allocate(1.0, {"R": 0.1}, "R", ["LAC"], 0.4, 20)
        rec.control_window(1.0, {"S": 0.8}, 0.4, 20, ["LAC"], 1.1, 0.3, 2, -0.5)
        rec.fault_start(2.0, "server-slowdown-0", "server-slowdown", {"rate": 0.5})
        rec.fault_end(3.0, "server-slowdown-0", "server-slowdown")
        rec.fleet_route(0.05, 1, 0, "freshness", [0, 1], 0.9, False)
        rec.fleet_rebalance(4.0, 0, 1.1, 1.0, 1.1, "degrade")
        assert sorted(rec.counts) == sorted(ALL_KINDS)
        assert len(rec) == len(ALL_KINDS)
        # Events are retained in emit order.
        kinds = [event.kind for event in rec.events()]
        assert kinds[0] == "query.admit"
        assert kinds[-1] == "fleet.rebalance"

    def test_ring_evicts_oldest_and_counts_drops(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.update_drop(float(i), i, 1.0)
        assert len(rec) == 3
        assert rec.dropped == 2
        # Oldest evicted: the retained events are the *tail* of the run.
        assert [event.fields["item"] for event in rec.events()] == [2, 3, 4]
        # counts cover everything recorded, not just what is retained.
        assert rec.counts["update.drop"] == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

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

    def test_metrics_sink_sees_every_event(self):
        seen = []

        class Sink:
            def observe_event(self, event):
                seen.append(event.kind)

        rec = TraceRecorder(capacity=1, metrics=Sink())
        rec.update_drop(0.0, 1, 1.0)
        rec.update_drop(0.1, 2, 1.0)  # evicts the first from the ring
        assert seen == ["update.drop", "update.drop"]

    def test_base_recorder_emit_is_noop(self):
        # The Recorder base class is safe to use directly (emit discards).
        rec = Recorder()
        rec.query_admit(0.0, 1, 1.0, 1)
        assert rec.enabled is False


#: Every hook :class:`TraceRecorder` records as a typed slotted event,
#: with sample arguments.
TYPED_HOOKS = [
    ("query_admit", (0.1, 1, 1.0, 2)),
    ("query_outcome", (0.3, 1, "success", 0.1, 0.2, 0.95, 0)),
    ("query_outcome", (0.3, 2, "rejected", 0.1, 0.0, None, 0)),
    ("sched_enqueue", (0.1, 1, "admit")),
    ("sched_dispatch", (0.15, 1)),
    ("sched_park", (0.18, 1)),
    ("modulation_change", (0.6, 5, "degrade", 2.0, 2.2)),
    ("modulation_change", (0.7, 5, "upgrade", 2.2, 1.0)),
]


class TestTypedEvents:
    @pytest.mark.parametrize("hook,args", TYPED_HOOKS)
    def test_typed_event_matches_generic_emit(self, hook, args):
        """A typed event's ``fields`` and ``as_dict()`` equal the dict the
        generic :meth:`Recorder.emit` path builds, key order included."""
        typed = TraceRecorder()
        getattr(typed, hook)(*args)
        generic = TraceRecorder()
        getattr(Recorder, hook)(generic, *args)
        [fast] = typed.events()
        [slow] = generic.events()
        assert type(fast) is not TraceEvent and type(slow) is TraceEvent
        assert (fast.time, fast.kind) == (slow.time, slow.kind)
        assert list(fast.fields.items()) == list(slow.fields.items())
        assert list(fast.as_dict().items()) == list(slow.as_dict().items())
