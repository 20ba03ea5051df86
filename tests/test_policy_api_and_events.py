"""Coverage for event ordering in the engine and the policy-hook defaults."""

from repro.db.items import ItemTable
from repro.db.policy_api import ServerPolicy
from repro.db.server import Server, ServerConfig
from repro.db.transactions import QueryTransaction
from repro.sim.engine import Simulator


class MinimalPolicy(ServerPolicy):
    """Implements only the two abstract hooks; defaults for the rest."""

    def admit_query(self, query, server):
        return True

    def should_apply_update(self, item, server):
        return True


class TestEventOrdering:
    """Events are totally ordered by ``(time, priority, seq)``."""

    def test_total_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("later_time"), priority=-5)
        sim.schedule(1.0, lambda: fired.append("early"), priority=0)
        sim.schedule(1.0, lambda: fired.append("higher_priority"), priority=-1)
        sim.schedule(1.0, lambda: fired.append("later_seq"), priority=0)
        sim.run()
        assert fired == ["higher_priority", "early", "later_seq", "later_time"]

    def test_cancelled_event_does_not_invoke_callback(self):
        sim = Simulator()
        fired = []
        token = sim.schedule_token(1.0, fired.append, 1)
        sim.cancel_token(token)
        sim.run()
        assert fired == []
        assert sim.events_fired == 0

    def test_fire_invokes_callback(self):
        sim = Simulator()
        fired = []
        sim.schedule_token(1.0, fired.append, 1)
        sim.run()
        assert fired == [1]
        assert sim.events_fired == 1


class TestPolicyDefaults:
    def make(self):
        sim = Simulator()
        items = ItemTable.uniform(2, ideal_period=5.0, update_exec_time=0.1)
        return sim, Server(sim, items, MinimalPolicy(), ServerConfig(), keep_records=True)

    def test_default_hooks_are_noops(self):
        """A policy with only the two decisions implemented runs a full
        query + update lifecycle without errors."""
        sim, server = self.make()
        txn = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=0.0,
            exec_time=0.1,
            items=(0,),
            relative_deadline=1.0,
        )
        sim.schedule(0.0, lambda: server.submit_query(txn))
        sim.schedule(0.5, lambda: server.source_update_arrival(1))
        sim.run()
        assert len(server.records) == 1
        assert server.items[1].updates_executed == 1

    def test_default_stale_at_read_lets_query_proceed(self):
        policy = MinimalPolicy()
        assert policy.on_query_stale_at_read(None, None) is False

    def test_describe_defaults_to_class_name(self):
        assert MinimalPolicy().describe() == "MinimalPolicy"

