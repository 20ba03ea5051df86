"""Tests for the elastic-scheduling baseline policy."""

import pytest

from repro.core.elastic import ElasticConfig, ElasticPolicy
from repro.db.items import ItemTable
from repro.db.server import ARRIVAL_EVENT_PRIORITY, Server, ServerConfig
from repro.db.transactions import Outcome, QueryTransaction
from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.runner import run_experiment
from repro.sim.engine import Simulator


def build(n_items=4, period=1.0, update_exec=0.4):
    sim = Simulator()
    items = ItemTable.uniform(n_items, ideal_period=period, update_exec_time=update_exec)
    policy = ElasticPolicy()
    server = Server(sim, items, policy, ServerConfig())
    return sim, server, policy


def feed_periodic_updates(sim, server, n_items, period, horizon):
    for item_id in range(n_items):
        t = 0.1 + 0.01 * item_id
        while t <= horizon:
            sim.schedule(
                t,
                lambda i=item_id: server.source_update_arrival(i),
                priority=ARRIVAL_EVENT_PRIORITY,
            )
            t += period


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ElasticConfig(target_update_share=0.0)
        with pytest.raises(ValueError):
            ElasticConfig(target_update_share=1.0)


class TestSpring:
    def test_compresses_under_update_overload(self):
        sim, server, policy = build()
        feed_periodic_updates(sim, server, 4, period=0.5, horizon=10.0)
        sim.run(until=10.5)
        assert policy.stretch > 1.0
        assert policy.compressions > 0
        assert server.items[0].updates_dropped > 0

    def test_relaxes_when_load_subsides(self):
        sim, server, policy = build()
        feed_periodic_updates(sim, server, 4, period=0.5, horizon=5.0)
        sim.run(until=5.5)
        stretched = policy.stretch
        assert stretched > 1.0
        sim.run(until=20.0)  # quiet period: spring relaxes
        assert policy.stretch < stretched
        assert policy.relaxations > 0

    def test_stretch_is_uniform_not_selective(self):
        """Unlike UNIT, elastic scheduling cannot favour hot items —
        every item drops the same fraction under overload."""
        sim, server, policy = build(n_items=2)
        feed_periodic_updates(sim, server, 2, period=0.5, horizon=20.0)
        sim.run(until=21.0)
        a, b = server.items[0], server.items[1]
        assert a.updates_dropped == pytest.approx(b.updates_dropped, abs=3)

    def test_idle_system_never_stretches(self):
        sim, server, policy = build()
        feed_periodic_updates(sim, server, 1, period=5.0, horizon=20.0)
        sim.run(until=21.0)
        assert policy.stretch == 1.0
        assert server.items[0].updates_dropped == 0


class TestAdmission:
    def test_feasibility_rejects_impossible_query(self):
        sim, server, policy = build()
        txn = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=1.0,
            exec_time=2.0,
            items=(0,),
            relative_deadline=1.0,
        )
        sim.schedule(1.0, lambda: server.submit_query(txn), priority=ARRIVAL_EVENT_PRIORITY)
        sim.run(until=2.0)
        assert server.outcome_counts[Outcome.REJECTED] == 1


class TestEndToEnd:
    def test_runner_integration(self):
        report = run_experiment(
            ExperimentConfig(
                policy="elastic", update_trace="med-unif", seed=5, scale=SCALES["smoke"]
            )
        )
        assert report.policy_name == "Elastic"
        assert sum(report.outcome_counts.values()) == report.queries_submitted
        assert report.updates_dropped > 0  # spring engaged at 75% volume

    def test_unit_beats_uniform_stretching(self):
        """The ablation claim: selective (lottery) degradation beats
        uniform elastic stretching on the skewed workload."""
        elastic = run_experiment(
            ExperimentConfig(
                policy="elastic", update_trace="med-unif", seed=5, scale=SCALES["small"]
            )
        )
        unit = run_experiment(
            ExperimentConfig(
                policy="unit", update_trace="med-unif", seed=5, scale=SCALES["small"]
            )
        )
        assert unit.usm > elastic.usm