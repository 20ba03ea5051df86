"""Behavioural tests for the four policies on mini-simulations."""

import pytest

from repro.core.baselines import ImuPolicy, OduPolicy
from repro.core.qmf import QmfPolicy
from repro.core.unit import UnitConfig, UnitPolicy
from repro.core.usm import PenaltyProfile
from repro.db.items import ItemTable
from repro.db.server import ARRIVAL_EVENT_PRIORITY, Server, ServerConfig
from repro.db.transactions import Outcome, QueryTransaction
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def build(policy, n_items=4, period=5.0, update_exec=0.5):
    sim = Simulator()
    items = ItemTable.uniform(n_items, ideal_period=period, update_exec_time=update_exec)
    server = Server(sim, items, policy, ServerConfig(), keep_records=True)
    return sim, server


def feed_updates(sim, server, item_id, times):
    for t in times:
        sim.schedule(
            t,
            lambda i=item_id: server.source_update_arrival(i),
            priority=ARRIVAL_EVENT_PRIORITY,
        )


def feed_query(sim, server, arrival, exec_time=0.2, deadline=5.0, items=(0,)):
    txn = QueryTransaction(
        txn_id=server.next_txn_id(),
        arrival=arrival,
        exec_time=exec_time,
        items=tuple(items),
        relative_deadline=deadline,
    )
    sim.schedule(
        arrival, lambda: server.submit_query(txn), priority=ARRIVAL_EVENT_PRIORITY
    )
    return txn


def _stale_item_with_two_readers(policy):
    """Drive the stale-at-read hook directly, with the refresh still
    pending between the two calls (no simulation run)."""
    sim, server = build(policy, update_exec=1.0)
    server.items[0].record_arrival()
    server.items[0].record_drop()

    def reader(txn_id):
        return QueryTransaction(
            txn_id=txn_id,
            arrival=2.0,
            exec_time=0.2,
            items=(0,),
            relative_deadline=10.0,
        )

    assert policy.on_query_stale_at_read(reader(100), server)
    assert policy.on_query_stale_at_read(reader(101), server)


class TestImu:
    def test_applies_every_update(self):
        sim, server = build(ImuPolicy())
        feed_updates(sim, server, 0, [1.0, 2.0, 3.0])
        sim.run()
        assert server.items[0].updates_executed == 3
        assert server.items[0].updates_dropped == 0

    def test_admits_everything(self):
        sim, server = build(ImuPolicy())
        txn = feed_query(sim, server, 1.0, exec_time=1.0, deadline=1.0)
        sim.run()
        # Admitted (not rejected) even though it can barely make it.
        record = server.records[0]
        assert record.outcome is not Outcome.REJECTED

    def test_perfect_freshness(self):
        sim, server = build(ImuPolicy())
        feed_updates(sim, server, 0, [0.5, 1.5])
        txn = feed_query(sim, server, 3.0)
        sim.run()
        record = next(r for r in server.records if r.txn_id == txn.txn_id)
        assert record.outcome is Outcome.SUCCESS
        assert record.freshness == 1.0


class TestOdu:
    def test_never_applies_periodic_updates(self):
        sim, server = build(OduPolicy())
        feed_updates(sim, server, 0, [1.0, 2.0])
        sim.run()
        assert server.items[0].updates_dropped == 2
        assert server.items[0].updates_executed == 0

    def test_refreshes_on_stale_read(self):
        policy = OduPolicy()
        sim, server = build(policy)
        feed_updates(sim, server, 0, [1.0])
        txn = feed_query(sim, server, 2.0)
        sim.run()
        record = next(r for r in server.records if r.txn_id == txn.txn_id)
        assert record.outcome is Outcome.SUCCESS
        assert record.freshness == 1.0
        assert policy.refreshes_spawned == 1
        assert server.items[0].updates_executed == 1

    def test_fresh_item_needs_no_refresh(self):
        policy = OduPolicy()
        sim, server = build(policy)
        txn = feed_query(sim, server, 2.0)
        sim.run()
        assert policy.refreshes_spawned == 0

    def test_without_dedup_each_stale_reader_spawns_a_refresh(self):
        policy = OduPolicy()
        _stale_item_with_two_readers(policy)
        assert policy.refreshes_spawned == 2
        assert policy.refreshes_shared == 0


class TestQmf:
    def test_dedup_attaches_second_reader_to_pending_refresh(self):
        policy = QmfPolicy()
        _stale_item_with_two_readers(policy)
        assert policy.refreshes_spawned == 1
        assert policy.refreshes_shared == 1

    def test_flexible_set_ranked_by_access_update_ratio(self):
        policy = QmfPolicy()
        sim, server = build(policy)
        # Item 0: hot updates, no accesses -> lowest ratio, first flexible.
        feed_updates(sim, server, 0, [0.1, 0.3, 0.7, 1.1, 1.3])
        feed_query(sim, server, 0.5, items=(1,))
        policy.flex_fraction = 0.25
        sim.run(until=2.0)
        policy._refresh_flexible_set()
        assert 0 in policy._flexible
        assert 1 not in policy._flexible

    def test_quota_rejection(self):
        policy = QmfPolicy()
        sim, server = build(policy)
        # The first query runs; the second queues 3 s of work behind
        # it, which the 5 s starting quota still admits; the third
        # finds about 6 s outstanding and is turned away.
        for arrival in (1.0, 1.01, 1.02):
            feed_query(sim, server, arrival, exec_time=3.0, deadline=50.0)
        sim.run(until=3.0)
        assert policy.rejections_quota == 1
        assert policy.rejections_feasibility == 0

    def test_feasibility_rejection(self):
        policy = QmfPolicy()
        sim, server = build(policy)
        feed_query(sim, server, 1.0, exec_time=2.0, deadline=1.0)
        sim.run(until=3.0)
        assert policy.rejections_feasibility == 1
        assert server.outcome_counts[Outcome.REJECTED] == 1

    def test_database_freshness_metric(self):
        policy = QmfPolicy()
        sim, server = build(policy, n_items=4)
        policy.flex_fraction = 1.0
        sim.run(until=0.5)
        policy._refresh_flexible_set()
        feed_updates(sim, server, 0, [1.0])  # dropped: item 0 stale
        sim.run(until=2.0)
        assert policy._database_freshness() == pytest.approx(0.75)

    def test_qmf2_variant_refreshes_flexible_items(self):
        policy = QmfPolicy()
        sim, server = build(policy)
        policy.flex_fraction = 1.0
        sim.run(until=0.1)
        policy._refresh_flexible_set()
        feed_updates(sim, server, 0, [0.5])
        txn = feed_query(sim, server, 2.0)
        sim.run(until=4.0)
        record = next(r for r in server.records if r.txn_id == txn.txn_id)
        assert record.outcome is Outcome.SUCCESS
        assert server.items[0].updates_executed == 1

    def test_controller_grows_quota_when_idle_and_fresh(self):
        policy = QmfPolicy()
        sim, server = build(policy)
        before = policy.backlog_quota
        sim.run(until=15.5)  # idle CPU, everything fresh: ticks at 5, 10, 15
        assert policy.backlog_quota == pytest.approx(before * 1.05**3)
        assert policy.control_ticks == 3

    def overload(self, horizon):
        """Saturate the CPU past the 90 % utilization set-point with
        updates (2 s of update work per second) and make tight-deadline
        queries miss, far above the 1 % miss-ratio target."""
        policy = QmfPolicy()
        sim, server = build(policy, update_exec=0.4)
        for k in range(int(horizon / 0.2)):
            feed_updates(sim, server, k % 4, [0.05 + 0.2 * k])
        for i in range(int(horizon / 0.3)):
            feed_query(sim, server, 0.3 * i, exec_time=0.1, deadline=0.3)
        return policy, sim

    def test_controller_shrinks_quota_under_miss_pressure(self):
        policy, sim = self.overload(horizon=21.0)
        before = policy.backlog_quota
        # Ticks at 5 and 10 find every item fresh (above the 90 %
        # target), so they move the flexible fraction to 0.2, which
        # makes one of the four items flexible.  Its dropped updates
        # take database freshness to 75 %, so the overload branch sheds
        # load via the quota from then on.
        sim.run(until=21.0)
        assert policy.flex_fraction == pytest.approx(0.2)
        assert policy.backlog_quota < before

    def test_controller_degrades_updates_when_overloaded_but_fresh(self):
        policy, sim = self.overload(horizon=6.0)
        before = policy.backlog_quota
        sim.run(until=6.0)
        # The first tick (t = 5) finds every item fresh, above the 90 %
        # target, so overload moves the flexible-freshness fraction
        # instead of the quota.
        assert policy.control_ticks == 1
        assert policy.flex_fraction == pytest.approx(0.1)
        assert policy.backlog_quota == before


class TestUnit:
    def make_unit(self, **overrides):
        config = UnitConfig(
            profile=PenaltyProfile.naive(),
            control_period=0.5,
            modulation_warmup=0.0,
            **overrides,
        )
        streams = RandomStreams(5)
        return UnitPolicy(config, streams.stream("lottery"))

    def test_bind_wires_modules(self):
        policy = self.make_unit()
        sim, server = build(policy)
        assert policy.tickets is not None
        assert policy.admission is not None
        assert policy.lbc is not None
        assert len(policy.tickets) == len(server.items)

    def test_degrade_rounds_autoscale(self):
        policy = self.make_unit()
        sim, server = build(policy, n_items=4)
        assert policy._degrade_rounds == 16  # max(16, 4 // 2)

    def test_period_gating_drops_when_degraded(self):
        policy = self.make_unit()
        sim, server = build(policy, period=1.0)
        item = server.items[0]
        server.items.set_period(0, 2.0)  # pretend UM degraded it
        feed_updates(sim, server, 0, [0.0, 1.0, 2.0, 3.0, 4.0])
        sim.run(until=4.5)
        # Arrivals at 0,1,2,3,4 with pc=2: applied at 0,2,4 -> 3 applied.
        assert item.updates_executed == 3
        assert item.updates_dropped == 2

    def test_all_arrivals_applied_at_ideal_period(self):
        policy = self.make_unit()
        sim, server = build(policy, period=1.0)
        feed_updates(sim, server, 0, [0.0, 1.0, 2.0, 3.0])
        sim.run(until=4.0)
        assert server.items[0].updates_dropped == 0

    def test_query_access_charges_tickets(self):
        policy = self.make_unit()
        sim, server = build(policy)
        feed_query(sim, server, 1.0, exec_time=0.2, deadline=2.0)
        sim.run(until=2.0)
        assert policy.tickets._tickets[0] < 0.0

    def test_control_loop_reacts_to_dmf_with_degrade_and_tac(self):
        policy = self.make_unit()
        sim, server = build(policy, period=0.2, update_exec=0.4)
        # Saturating update stream -> queries miss -> F_m dominates.
        for t in range(40):
            feed_updates(sim, server, t % 4, [t * 0.1])
        for i in range(20):
            feed_query(sim, server, 0.2 * i, exec_time=0.1, deadline=0.3)
        sim.run(until=6.0)
        from repro.core.controller import ControlSignal

        assert policy.signals_applied[ControlSignal.DEGRADE_UPDATES] > 0

    def test_rejections_recorded_through_admission(self):
        policy = self.make_unit()
        sim, server = build(policy)
        feed_query(sim, server, 1.0, exec_time=2.0, deadline=1.0)  # impossible
        sim.run(until=2.0)
        assert server.outcome_counts[Outcome.REJECTED] == 1
