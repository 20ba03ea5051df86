"""Edge-case and stress tests for the server's less-travelled paths."""

import random

import pytest

from repro.db.items import ItemTable
from repro.db.server import ARRIVAL_EVENT_PRIORITY, Server, ServerConfig
from repro.db.transactions import Outcome, QueryTransaction
from repro.sim.engine import SimulationError, Simulator

from tests.test_db_locks import held_items
from tests.test_db_server import StubPolicy, make_server, outcome_of, submit_query


class TestResubmissionGuard:
    def test_double_submit_rejected(self):
        sim, server = make_server()
        txn = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=0.0,
            exec_time=0.1,
            items=(0,),
            relative_deadline=1.0,
        )
        server.submit_query(txn)
        with pytest.raises(ValueError):
            server.submit_query(txn)


class TestMultiItemQueries:
    def test_query_locks_all_items(self):
        sim, server = make_server()
        txn = submit_query(
            server, arrival=0.0, exec_time=0.5, deadline=5.0, items=(0, 1, 2)
        )
        probes = []
        sim.schedule(0.2, lambda: probes.append(sorted(held_items(server.locks, txn))))
        sim.run()
        assert probes[0] == [0, 1, 2]
        assert outcome_of(server, txn).outcome is Outcome.SUCCESS

    def test_update_on_any_item_restarts_multi_item_query(self):
        sim, server = make_server(update_exec=0.2)
        txn = submit_query(
            server, arrival=0.0, exec_time=1.0, deadline=10.0, items=(0, 1, 2)
        )
        sim.schedule(0.3, lambda: server.source_update_arrival(2))
        sim.run()
        record = outcome_of(server, txn)
        assert record.restarts == 1
        assert record.outcome is Outcome.SUCCESS

    def test_freshness_is_eq1_of_the_stalest_item(self):
        sim, server = make_server(policy=StubPolicy(apply_updates=False))
        for _ in range(2):
            sim.schedule(0.1, lambda: server.source_update_arrival(1))  # dropped
        sim.schedule(0.2, lambda: server.source_update_arrival(2))  # dropped
        txn = submit_query(
            server, arrival=1.0, exec_time=0.5, deadline=5.0, items=(0, 1, 2)
        )
        sim.run()
        record = outcome_of(server, txn)
        assert record.freshness == 1.0 / 3.0
        assert record.outcome is Outcome.DATA_STALE


class TestReadSnapshot:
    def test_commit_without_snapshot_raises(self):
        """A query commits only through the completion ``_run`` scheduled
        after snapshotting its read; a missing snapshot is a bug."""
        sim, server = make_server()
        txn = submit_query(server, arrival=0.0, exec_time=1.0, deadline=5.0)
        sim.run(until=0.5)
        assert server.running_transaction() is txn
        txn.observed_freshness = None
        with pytest.raises(SimulationError, match=f"query {txn.txn_id} "):
            sim.run()


class TestConcurrentUpdates:
    def test_same_item_updates_serialize_in_edf_order(self):
        sim, server = make_server(update_exec=0.5)
        # Two arrivals close together for the same item: the second must
        # wait for the first's write lock and both must apply.
        sim.schedule(0.0, lambda: server.source_update_arrival(0))
        sim.schedule(0.1, lambda: server.source_update_arrival(0))
        sim.run()
        assert server.items[0].updates_executed == 2
        assert server.items[0].applied_seq == 2

    def test_flood_of_updates_starves_query(self):
        """Updates outrank queries: a saturating update stream pushes a
        query past its firm deadline (IMU's failure mode)."""
        sim, server = make_server(n_items=2, update_exec=0.3)
        for k in range(20):
            sim.schedule(0.2 * k, lambda: server.source_update_arrival(0))
        txn = submit_query(server, arrival=0.1, exec_time=0.2, deadline=1.0, items=(1,))
        sim.run()
        assert outcome_of(server, txn).outcome is Outcome.DEADLINE_MISS


class TestKillInsteadOfRestart:
    def test_ablation_kills_2plhp_victims(self):
        sim = Simulator()
        items = ItemTable.uniform(2, ideal_period=100.0, update_exec_time=0.5)
        server = Server(
            sim,
            items,
            StubPolicy(),
            ServerConfig(restart_aborted_queries=False),
            keep_records=True,
        )
        txn = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=0.0,
            exec_time=1.0,
            items=(0,),
            relative_deadline=10.0,
        )
        sim.schedule(0.0, lambda: server.submit_query(txn), priority=ARRIVAL_EVENT_PRIORITY)
        sim.schedule(0.5, lambda: server.source_update_arrival(0))
        sim.run()
        record = server.records[-1]
        assert record.outcome is Outcome.DEADLINE_MISS
        assert record.finish_time == pytest.approx(0.5)


class TestRandomizedConservation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_query_resolves_under_chaotic_load(self, seed):
        """Fuzz: random queries and updates; exactly one outcome each,
        and the simulator drains."""
        rng = random.Random(seed)
        sim, server = make_server(n_items=8, update_exec=0.2)
        txns = []
        for _ in range(120):
            arrival = rng.uniform(0, 20)
            n_items = rng.randint(1, 3)
            items = tuple(rng.sample(range(8), n_items))
            txns.append(
                submit_query(
                    server,
                    arrival=arrival,
                    exec_time=rng.uniform(0.01, 0.4),
                    deadline=rng.uniform(0.05, 3.0),
                    items=items,
                )
            )
        for _ in range(80):
            t = rng.uniform(0, 20)
            item = rng.randrange(8)
            sim.schedule(
                t,
                lambda i=item: server.source_update_arrival(i),
                priority=ARRIVAL_EVENT_PRIORITY,
            )
        sim.run(until=40.0)
        assert len(server.records) == len(txns)
        assert sorted(r.txn_id for r in server.records) == sorted(
            t.txn_id for t in txns
        )
        # Sanity: the CPU never ran two things at once (busy time bounded
        # by the horizon we simulated).
        assert server.busy_time() <= 40.0 + 1e-6
