"""Tests for the fleet query router."""

import pytest

from repro.fleet.partition import build_partition
from repro.fleet.router import route_queries
from repro.obs.trace import FLEET_ROUTE, TraceRecorder
from repro.workload.queries import QuerySpec, QueryTrace
from repro.workload.updates import ItemUpdateSpec, UpdateTrace

HORIZON = 100.0
LAG = 5.0  # FleetConfig.replica_lag


def query(arrival, items, exec_time=0.1, deadline=5.0, freshness=0.9):
    return QuerySpec(
        arrival=arrival,
        items=tuple(items),
        exec_time=exec_time,
        relative_deadline=deadline,
        freshness_req=freshness,
    )


def make_traces(queries, n_items=4, updates_per_item=0, update_exec=0.05):
    qt = QueryTrace(name="t", horizon=HORIZON, n_items=n_items, queries=list(queries))
    items = []
    for item_id in range(n_items):
        count = updates_per_item
        period = HORIZON / count if count else 2 * HORIZON
        items.append(
            ItemUpdateSpec(
                item_id=item_id,
                count=count,
                period=period,
                phase=0.0 if count else HORIZON,
                exec_time=update_exec,
            )
        )
    ut = UpdateTrace(name="t", horizon=HORIZON, items=items, target_utilization=0.1)
    return qt, ut


def route_estimates(recorder):
    """The router's freshness estimate of each routed query, in order."""
    return [
        e["est_freshness"] for e in recorder.event_dicts() if e["kind"] == FLEET_ROUTE
    ]


class TestPrimaryPolicy:
    def test_routes_to_primary_of_first_item(self):
        part = build_partition(4, 2)  # items 0, 1 -> shard 0; 2, 3 -> shard 1
        qt, ut = make_traces([query(1.0, [1]), query(2.0, [2]), query(3.0, [3])])
        plan = route_queries(qt, ut, part, policy="primary", replica_lag=LAG)
        assert plan.assignments == [0, 1, 1]
        assert plan.forced == [False, False, False]

    def test_single_shard_takes_everything(self):
        part = build_partition(4, 1)
        qt, ut = make_traces([query(1.0, [0]), query(2.0, [3])])
        recorder = TraceRecorder()
        plan = route_queries(
            qt, ut, part, policy="primary", replica_lag=LAG, recorder=recorder
        )
        assert plan.assignments == [0, 0]
        assert route_estimates(recorder) == [1.0, 1.0]


class TestForcedRouting:
    def test_disjoint_hosts_force_primary_and_materialize_replicas(self):
        part = build_partition(4, 2)  # no replication
        qt, ut = make_traces([query(1.0, [0, 2])])  # primaries 0 and 1
        plan = route_queries(qt, ut, part, policy="primary", replica_lag=LAG)
        assert plan.assignments == [0]
        assert plan.forced == [True]
        # Item 2 must be materialized on shard 0 as a forced replica.
        assert plan.extra_hosts == {0: [2]}

    def test_replication_avoids_forcing(self):
        part = build_partition(4, 2, replication=2)
        qt, ut = make_traces([query(1.0, [0, 2])])
        plan = route_queries(qt, ut, part, policy="primary", replica_lag=LAG)
        assert plan.forced == [False]
        assert plan.extra_hosts == {}


class TestFreshnessPolicy:
    def test_stale_replica_filtered_out(self):
        # Item 0's primary is shard 0; shard 1 holds a lag-delayed
        # replica.  With updates every 2s and a 10s lag, the replica is
        # ~5 updates behind: estimated freshness 1/6 << 0.9, so every
        # read of item 0 must stay on the primary.
        part = build_partition(2, 2, replication=2)
        qt, ut = make_traces(
            [query(50.0 + i, [0], freshness=0.9) for i in range(4)],
            n_items=2,
            updates_per_item=50,
        )
        recorder = TraceRecorder()
        plan = route_queries(
            qt, ut, part, policy="freshness", replica_lag=10.0, recorder=recorder
        )
        assert plan.assignments == [0, 0, 0, 0]
        assert route_estimates(recorder) == [1.0] * 4

    def test_fresh_replica_used_for_balance(self):
        # No updates at all: replicas are perfectly fresh, so the
        # freshness policy balances load alone and spreads.
        part = build_partition(2, 2, replication=2)
        qt, ut = make_traces(
            [query(float(i), [0], freshness=0.9) for i in range(1, 5)],
            n_items=2,
            updates_per_item=0,
        )
        plan = route_queries(qt, ut, part, policy="freshness", replica_lag=LAG)
        assert sorted(plan.routed_counts) == [2, 2]

    def test_low_requirement_tolerates_staleness(self):
        part = build_partition(2, 2, replication=2)
        qt, ut = make_traces(
            [query(50.0 + i, [0], freshness=0.05) for i in range(4)],
            n_items=2,
            updates_per_item=50,
        )
        plan = route_queries(qt, ut, part, policy="freshness", replica_lag=10.0)
        # 1/(1+5) ~ 0.167 >= 0.05: the replica qualifies, so load
        # balancing spreads across both shards.
        assert sorted(plan.routed_counts) == [2, 2]


class TestDeterminismAndObs:
    def test_plan_is_deterministic(self):
        part = build_partition(8, 3, replication=2)
        queries = [query(float(i) * 0.5, [i % 8]) for i in range(40)]
        qt, ut = make_traces(queries, n_items=8, updates_per_item=10)
        a = route_queries(qt, ut, part, policy="freshness", replica_lag=LAG)
        b = route_queries(qt, ut, part, policy="freshness", replica_lag=LAG)
        assert a.assignments == b.assignments
        assert a.routed_exec == b.routed_exec

    def test_route_events_emitted(self):
        part = build_partition(4, 2, replication=2)
        qt, ut = make_traces([query(1.0, [0]), query(2.0, [1])])
        recorder = TraceRecorder()
        plan = route_queries(
            qt, ut, part, policy="primary", replica_lag=LAG, recorder=recorder
        )
        events = [e for e in recorder.event_dicts() if e["kind"] == FLEET_ROUTE]
        assert len(events) == 2
        first = events[0]
        assert first["shard"] == plan.assignments[0]
        assert first["policy"] == "primary"
        assert first["txn"] == 1

    def test_unknown_policy_rejected(self):
        part = build_partition(4, 2)
        qt, ut = make_traces([query(1.0, [0])])
        with pytest.raises(ValueError):
            route_queries(qt, ut, part, policy="nope", replica_lag=LAG)
