"""Tests for the beyond-the-paper extensions DESIGN.md Section 6 lists:
per-user penalty profiles and multi-item queries driven end to end
through the experiment runner.
"""

import pytest

from repro.core.admission import AdmissionController
from repro.core.usm import MixedUsmAccumulator, PenaltyProfile
from repro.db.items import ItemTable
from repro.db.policy_api import ServerPolicy
from repro.db.server import ARRIVAL_EVENT_PRIORITY, Server, ServerConfig
from repro.db.transactions import Outcome, QueryTransaction, TransactionState
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.engine import Simulator

PREMIUM = PenaltyProfile(c_r=0.2, c_fm=1.0, c_fs=1.0, name="premium")
FREE = PenaltyProfile(c_r=0.05, c_fm=0.1, c_fs=0.1, name="free")


class TestMixedUsmAccumulator:
    def test_per_class_accounting(self):
        acc = MixedUsmAccumulator(default_profile=PenaltyProfile.naive())
        acc.record(Outcome.SUCCESS, PREMIUM, "premium")
        acc.record(Outcome.DEADLINE_MISS, PREMIUM, "premium")
        acc.record(Outcome.SUCCESS, FREE, "free")
        acc.record(Outcome.REJECTED, FREE, "free")
        assert acc.total_queries == 4
        assert acc.class_average_usm("premium") == pytest.approx((1.0 - 1.0) / 2)
        assert acc.class_average_usm("free") == pytest.approx((1.0 - 0.05) / 2)
        assert acc.average_usm() == pytest.approx((0.0 + 0.95 * 2 / 2) / 2 / 1, abs=1.0)
        assert acc.classes() == ["free", "premium"]

    def test_total_is_sum_of_contributions(self):
        acc = MixedUsmAccumulator(default_profile=PenaltyProfile.naive())
        acc.record(Outcome.DATA_STALE, PREMIUM, "premium")
        acc.record(Outcome.DATA_STALE)  # default naive profile: 0 penalty
        assert acc.total_usm() == pytest.approx(-1.0)

    def test_class_ratios(self):
        acc = MixedUsmAccumulator(default_profile=PenaltyProfile.naive())
        acc.record(Outcome.SUCCESS, None, "a")
        acc.record(Outcome.REJECTED, None, "a")
        ratios = acc.class_ratios("a")
        assert ratios[Outcome.SUCCESS] == 0.5
        assert acc.class_ratios("missing")[Outcome.SUCCESS] == 0.0


class TestPerQueryProfileAdmission:
    class _Inert(ServerPolicy):
        def admit_query(self, query, server):
            return True

        def should_apply_update(self, item, server):
            return True

    def make_server(self):
        sim = Simulator()
        items = ItemTable.uniform(2, ideal_period=100.0, update_exec_time=0.5)
        return sim, Server(sim, items, self._Inert(), ServerConfig())

    def queue_endangered(self, server, profile=None):
        txn = QueryTransaction(
            txn_id=1,
            arrival=0.0,
            exec_time=0.5,
            items=(0,),
            relative_deadline=0.62,
            profile=profile,
        )
        txn.state = TransactionState.READY
        server.ready.push(txn)
        return txn

    def newcomer(self, profile):
        return QueryTransaction(
            txn_id=9,
            arrival=0.0,
            exec_time=0.3,
            items=(0,),
            relative_deadline=0.45,
            profile=profile,
        )

    def test_high_rejection_cost_user_gets_admitted(self):
        """A premium user's high C_r outweighs the endangered query's
        cheap C_fm: admit."""
        _, server = self.make_server()
        ac = AdmissionController(FREE, c_flex=0.01)
        self.queue_endangered(server, profile=FREE)
        decision = ac.decide(self.newcomer(PREMIUM), server)
        assert decision.admitted

    def test_cheap_user_rejected_when_endangering_premium(self):
        """A free user endangering a premium query is turned away."""
        _, server = self.make_server()
        ac = AdmissionController(FREE, c_flex=0.01)
        self.queue_endangered(server, profile=PREMIUM)
        decision = ac.decide(self.newcomer(FREE), server)
        assert not decision.admitted
        assert decision.reason == "usm-check"

    def test_record_carries_profile_and_class(self):
        sim, server = self.make_server()
        txn = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=0.0,
            exec_time=0.1,
            items=(0,),
            relative_deadline=1.0,
            profile=PREMIUM,
            user_class="premium",
        )
        sim.schedule(0.0, lambda: server.submit_query(txn), priority=ARRIVAL_EVENT_PRIORITY)
        sim.run()
        record = server.records[0]
        assert record.profile is PREMIUM
        assert record.user_class == "premium"


class TestMultiItemEndToEnd:
    def test_runner_with_three_item_queries(self):
        report = run_experiment(
            ExperimentConfig(
                policy="unit",
                update_trace="low-unif",
                seed=5,
                scale=SCALES["smoke"],
                items_per_query=3,
            )
        )
        assert report.queries_submitted > 0
        assert sum(report.outcome_counts.values()) == report.queries_submitted
        # Three items per query -> access counts triple the query count.
        assert sum(report.query_access_counts) == 3 * report.queries_submitted
