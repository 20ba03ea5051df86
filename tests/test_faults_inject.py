"""Tests for trace perturbation (the workload-shaping injectors)."""

import pytest

from repro.faults import FaultScenario, FlashCrowd, HotspotShift, UpdateStorm
from repro.sim.rng import RandomStreams
from repro.workload.perturb import (
    ExplicitUpdateTrace,
    perturb_query_trace,
    perturb_update_trace,
)
from repro.workload.queries import QuerySpec, QueryTrace
from repro.workload.updates import ItemUpdateSpec, UpdateTrace

HORIZON = 100.0


def make_query_trace(n=50):
    """n queries, one per second, round-robin over 4 items."""
    queries = [
        QuerySpec(
            arrival=float(i),
            items=(i % 4,),
            exec_time=0.1,
            relative_deadline=1.0,
            freshness_req=0.9,
        )
        for i in range(n)
    ]
    return QueryTrace(name="t", horizon=HORIZON, n_items=4, queries=queries)


def make_update_trace():
    items = [
        ItemUpdateSpec(item_id=0, count=10, period=10.0, phase=0.5, exec_time=0.2),
        ItemUpdateSpec(item_id=1, count=5, period=20.0, phase=1.0, exec_time=0.2),
    ]
    return UpdateTrace(name="u", horizon=HORIZON, items=items, target_utilization=0.1)


def in_window(queries, start, end):
    return [q for q in queries if start <= q.arrival < end]


class TestFlashCrowd:
    def test_amplification_multiplies_in_window_queries(self):
        trace = make_query_trace()
        scenario = FaultScenario(
            name="s", flash_crowds=[FlashCrowd(start=10.0, end=30.0, multiplier=3.0)]
        )
        out = perturb_query_trace(trace, scenario, RandomStreams(seed=1))
        base_in = len(in_window(trace.queries, 10.0, 30.0))
        assert len(in_window(out.queries, 10.0, 30.0)) == 3 * base_in
        # Out-of-window queries untouched.
        assert in_window(out.queries, 0.0, 10.0) == in_window(
            trace.queries, 0.0, 10.0
        )
        assert len(out.queries) == len(trace.queries) + 2 * base_in

    def test_thinning_keeps_a_fraction(self):
        trace = make_query_trace()
        scenario = FaultScenario(
            name="s", flash_crowds=[FlashCrowd(start=0.0, end=50.0, multiplier=0.4)]
        )
        out = perturb_query_trace(trace, scenario, RandomStreams(seed=1))
        kept = len(out.queries)
        assert 0 < kept < len(trace.queries)
        # Every survivor is one of the originals.
        assert set(q.arrival for q in out.queries) <= set(
            q.arrival for q in trace.queries
        )

    def test_replicas_stay_inside_the_window(self):
        trace = make_query_trace()
        scenario = FaultScenario(
            name="s", flash_crowds=[FlashCrowd(start=10.0, end=30.0, multiplier=2.0)]
        )
        out = perturb_query_trace(trace, scenario, RandomStreams(seed=3))
        extras = len(out.queries) - len(trace.queries)
        assert extras == len(in_window(trace.queries, 10.0, 30.0))
        assert len(in_window(out.queries, 10.0, 30.0)) == 2 * extras

    def test_sorted_output(self):
        trace = make_query_trace()
        scenario = FaultScenario(
            name="s", flash_crowds=[FlashCrowd(start=5.0, end=45.0, multiplier=2.5)]
        )
        out = perturb_query_trace(trace, scenario, RandomStreams(seed=2))
        arrivals = [q.arrival for q in out.queries]
        assert arrivals == sorted(arrivals)


class TestHotspotShift:
    def test_rotates_only_after_the_shift(self):
        trace = make_query_trace()
        scenario = FaultScenario(
            name="s", hotspot_shifts=[HotspotShift(at=25.0, rotation=1)]
        )
        out = perturb_query_trace(trace, scenario, RandomStreams(seed=1))
        for before, after in zip(trace.queries, out.queries):
            if before.arrival < 25.0:
                assert after.items == before.items
            else:
                assert after.items == tuple(
                    (item + 1) % 4 for item in before.items
                )

    def test_full_rotation_is_a_noop(self):
        trace = make_query_trace()
        scenario = FaultScenario(
            name="s", hotspot_shifts=[HotspotShift(at=0.0, rotation=4)]
        )
        out = perturb_query_trace(trace, scenario, RandomStreams(seed=1))
        assert [q.items for q in out.queries] == [q.items for q in trace.queries]


class TestUpdateStorm:
    def test_no_storm_returns_the_same_object(self):
        trace = make_update_trace()
        scenario = FaultScenario(
            name="s", flash_crowds=[FlashCrowd(start=0.0, end=1.0, multiplier=2.0)]
        )
        assert perturb_update_trace(trace, scenario, RandomStreams(seed=1)) is trace

    def test_storm_densifies_the_window(self):
        trace = make_update_trace()
        scenario = FaultScenario(
            name="s",
            update_storms=[UpdateStorm(start=20.0, end=60.0, period_factor=0.25)],
        )
        out = perturb_update_trace(trace, scenario, RandomStreams(seed=1))
        assert isinstance(out, ExplicitUpdateTrace)
        base_in = [t for t, _ in trace.arrival_events() if 20.0 <= t < 60.0]
        storm_in = [t for t, _ in out.arrival_events() if 20.0 <= t < 60.0]
        # 4x the rate over the window (phase jitter gives +-1 per item).
        assert len(storm_in) > 2 * len(base_in)
        # Outside the window the stream is untouched.
        outside = lambda events: [
            (t, i) for t, i in events if not 20.0 <= t < 60.0
        ]
        assert outside(out.arrival_events()) == outside(trace.arrival_events())

    def test_outage_silences_the_window(self):
        trace = make_update_trace()
        scenario = FaultScenario(
            name="s",
            update_storms=[UpdateStorm(start=20.0, end=60.0, period_factor=0.0)],
        )
        out = perturb_update_trace(trace, scenario, RandomStreams(seed=1))
        assert [t for t, _ in out.arrival_events() if 20.0 <= t < 60.0] == []
        assert out.total_updates() < trace.total_updates()

    def test_explicit_trace_accounting_is_consistent(self):
        trace = make_update_trace()
        scenario = FaultScenario(
            name="s",
            update_storms=[UpdateStorm(start=10.0, end=40.0, period_factor=0.5)],
        )
        out = perturb_update_trace(trace, scenario, RandomStreams(seed=5))
        events = out.arrival_events()
        assert out.total_updates() == len(events)
        assert sum(out.per_item_counts()) == len(events)
        assert out.utilization() == pytest.approx(
            sum(out.items[i].exec_time for _, i in events) / HORIZON
        )
        # Item specs (ideal periods) are preserved — the server's item
        # table semantics do not change because the source misbehaved.
        assert [item.period for item in out.items] == [
            item.period for item in trace.items
        ]


class TestDeterminism:
    def test_same_seed_same_traces(self):
        scenario = FaultScenario(
            name="s",
            flash_crowds=[FlashCrowd(start=10.0, end=40.0, multiplier=2.7)],
            update_storms=[UpdateStorm(start=20.0, end=60.0, period_factor=0.3)],
            hotspot_shifts=[HotspotShift(at=50.0, rotation=2)],
        )
        q1 = perturb_query_trace(make_query_trace(), scenario, RandomStreams(seed=9))
        q2 = perturb_query_trace(make_query_trace(), scenario, RandomStreams(seed=9))
        assert q1.queries == q2.queries
        u1 = perturb_update_trace(make_update_trace(), scenario, RandomStreams(seed=9))
        u2 = perturb_update_trace(make_update_trace(), scenario, RandomStreams(seed=9))
        assert u1.arrival_events() == u2.arrival_events()

    def test_different_seeds_differ(self):
        scenario = FaultScenario(
            name="s",
            flash_crowds=[FlashCrowd(start=10.0, end=40.0, multiplier=2.7)],
        )
        q1 = perturb_query_trace(make_query_trace(), scenario, RandomStreams(seed=9))
        q2 = perturb_query_trace(make_query_trace(), scenario, RandomStreams(seed=10))
        assert q1.queries != q2.queries

    def test_input_traces_are_not_mutated(self):
        trace = make_query_trace()
        arrivals = [q.arrival for q in trace.queries]
        scenario = FaultScenario(
            name="s",
            flash_crowds=[FlashCrowd(start=0.0, end=50.0, multiplier=3.0)],
            hotspot_shifts=[HotspotShift(at=0.0, rotation=1)],
        )
        perturb_query_trace(trace, scenario, RandomStreams(seed=1))
        assert [q.arrival for q in trace.queries] == arrivals
