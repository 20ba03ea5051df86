"""End-to-end tests of the experiment runner."""

import gc
from types import SimpleNamespace

import pytest

from repro.db.transactions import Outcome, QueryTransaction
from repro.experiments.config import SCALES, ExperimentConfig, build_experiment
from repro.experiments.report import stable_report_digest
from repro.experiments.runner import Substrate, _drain_window, run_experiment
from repro.workload.cache import get_workload

SMOKE = SCALES["smoke"]


class TestDrainWindow:
    @staticmethod
    def _trace(*pairs):
        return SimpleNamespace(
            queries=[
                SimpleNamespace(arrival=arrival, relative_deadline=deadline)
                for arrival, deadline in pairs
            ]
        )

    def test_window_covers_latest_pending_deadline(self):
        trace = self._trace((1.0, 4.0), (9.0, 30.0))  # deadlines: 5, 39
        assert _drain_window(trace, 10.0) == pytest.approx(30.0)

    def test_deadlines_inside_horizon_need_only_the_epsilon(self):
        trace = self._trace((1.0, 2.0), (3.0, 4.0))
        assert _drain_window(trace, 10.0) == 1.0

    def test_early_long_deadline_does_not_over_extend(self):
        # The window follows max(arrival + relative_deadline), not
        # horizon + max(relative_deadline): a long deadline on an early
        # arrival must not inflate it.
        trace = self._trace((0.0, 8.0), (9.5, 1.0))  # deadlines: 8, 10.5
        assert _drain_window(trace, 10.0) == pytest.approx(1.5)

    def test_empty_trace(self):
        assert _drain_window(SimpleNamespace(queries=[]), 10.0) == 1.0


class TestConfig:
    def test_build_experiment_defaults(self):
        config = build_experiment()
        assert config.policy == "unit"
        assert config.update_trace == "med-unif"
        assert config.scale.name == "small"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_experiment(policy="magic")

    def test_unknown_trace_rejected(self):
        with pytest.raises(ValueError):
            build_experiment(update_trace="med-diagonal")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            build_experiment(scale="galactic")

    def test_label(self):
        config = build_experiment(policy="odu", update_trace="low-neg")
        assert config.label() == "odu/low-neg/naive"


@pytest.mark.parametrize("policy", ["imu", "odu", "qmf", "unit"])
class TestAllPolicies:
    def test_runs_and_conserves_queries(self, policy):
        config = ExperimentConfig(
            policy=policy, update_trace="low-unif", seed=5, scale=SMOKE
        )
        report = run_experiment(config)
        assert report.queries_submitted > 0
        assert sum(report.outcome_counts.values()) == report.queries_submitted
        assert sum(report.ratios.values()) == pytest.approx(1.0)

    def test_usm_within_profile_bounds(self, policy):
        config = ExperimentConfig(
            policy=policy, update_trace="med-unif", seed=5, scale=SMOKE
        )
        report = run_experiment(config)
        assert config.profile.usm_min <= report.usm <= config.profile.usm_max


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=9, scale=SMOKE)
        )
        b = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=9, scale=SMOKE)
        )
        assert a.outcome_counts == b.outcome_counts
        assert a.usm == b.usm
        assert a.update_counts_executed == b.update_counts_executed

    def test_different_seeds_differ(self):
        a = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=1, scale=SMOKE)
        )
        b = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=2, scale=SMOKE)
        )
        assert a.outcome_counts != b.outcome_counts or a.usm != b.usm

    def test_policies_share_identical_workload(self):
        """Same seed -> same query trace and update arrivals regardless
        of policy (paired comparison discipline)."""
        imu = run_experiment(
            ExperimentConfig(policy="imu", update_trace="low-unif", seed=4, scale=SMOKE)
        )
        odu = run_experiment(
            ExperimentConfig(policy="odu", update_trace="low-unif", seed=4, scale=SMOKE)
        )
        assert imu.queries_submitted == odu.queries_submitted
        assert imu.update_arrivals == odu.update_arrivals
        assert imu.query_access_counts == odu.query_access_counts


class TestReportContents:
    def test_per_item_series_sizes(self):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=5, scale=SMOKE
        )
        report = run_experiment(config)
        n = SMOKE.n_items
        assert len(report.query_access_counts) == n
        assert len(report.update_counts_original) == n
        assert len(report.update_counts_executed) == n

    def test_imu_executes_everything(self):
        report = run_experiment(
            ExperimentConfig(policy="imu", update_trace="low-unif", seed=5, scale=SMOKE)
        )
        assert report.updates_dropped == 0
        assert report.updates_executed == report.update_arrivals

    def test_odu_drops_all_periodic_arrivals(self):
        report = run_experiment(
            ExperimentConfig(policy="odu", update_trace="low-unif", seed=5, scale=SMOKE)
        )
        assert report.updates_dropped == report.update_arrivals

    def test_imu_and_odu_never_go_stale(self):
        """Paper: both baselines achieve 100% freshness by construction,
        for single- and multi-item queries alike."""
        for policy in ("imu", "odu"):
            for items_per_query in (1, 3):
                report = run_experiment(
                    ExperimentConfig(
                        policy=policy,
                        update_trace="med-unif",
                        seed=5,
                        scale=SMOKE,
                        items_per_query=items_per_query,
                    )
                )
                assert report.outcome_counts[Outcome.DATA_STALE] == 0

    def test_records_kept_when_requested(self):
        config = ExperimentConfig(
            policy="imu",
            update_trace="low-unif",
            seed=5,
            scale=SMOKE,
            keep_records=True,
        )
        report = run_experiment(config)
        assert report.records is not None
        assert len(report.records) == report.queries_submitted

    def test_summary_renders(self):
        report = run_experiment(
            ExperimentConfig(policy="unit", update_trace="low-unif", seed=5, scale=SMOKE)
        )
        text = report.summary()
        assert "UNIT" in text
        assert "USM" in text


@pytest.mark.parametrize("items_per_query", [1, 3])
@pytest.mark.parametrize("policy", ["unit", "imu", "odu", "qmf", "elastic"])
def test_recorded_freshness_is_eq1(policy, items_per_query):
    """Every query that read its items scored ``1/(1+k)`` for an integer
    lag ``k`` (Eq. 1, min over items), and the score alone decides
    SUCCESS versus Data-Stale Failure."""
    report = run_experiment(
        ExperimentConfig(
            policy=policy,
            update_trace="med-unif",
            seed=7,
            scale=SMOKE,
            items_per_query=items_per_query,
            keep_records=True,
        )
    )
    scored = 0
    for record in report.records:
        if record.outcome in (Outcome.SUCCESS, Outcome.DATA_STALE):
            assert record.freshness is not None
        if record.freshness is None:
            continue
        scored += 1
        lag = round(1.0 / record.freshness - 1.0)
        assert record.freshness == 1.0 / (1.0 + lag)
        if record.outcome is Outcome.SUCCESS:
            assert record.freshness >= record.freshness_req
        elif record.outcome is Outcome.DATA_STALE:
            assert record.freshness < record.freshness_req
    assert scored > 0


def _substrate(policy, seed=7):
    config = ExperimentConfig(
        policy=policy, update_trace="high-unif", seed=seed, scale=SMOKE
    )
    return config, Substrate(config, *get_workload(config))


class TestEngineBounds:
    """``Simulator.run``'s ``until`` and ``max_events`` hold for the
    update arrivals the server fires inline, not only for heap events."""

    SLICE = 0.37

    @pytest.mark.parametrize("policy", ["imu", "unit", "odu"])
    def test_sliced_run_stops_at_every_epoch_and_matches_whole(self, policy):
        config, substrate = _substrate(policy)
        sim = substrate.sim
        for index in range(1, int(SMOKE.horizon / self.SLICE) + 1):
            until = index * self.SLICE
            substrate.run_to(until)
            assert sim.now == until, f"slice {index} overshot to {sim.now}"
        sliced = substrate.finish()
        whole = run_experiment(config)
        assert sliced.events_fired == whole.events_fired
        assert stable_report_digest(sliced) == stable_report_digest(whole)

    @pytest.mark.parametrize("policy", ["imu", "unit"])
    def test_max_events_caps_inline_fires(self, policy):
        config, substrate = _substrate(policy)
        sim = substrate.sim
        end = substrate.drain_until()
        steps = []
        while sim.now < end:
            before = sim.events_fired
            sim.run(until=end, max_events=5)
            steps.append(sim.events_fired - before)
        assert steps[:-1] == [5] * (len(steps) - 1)
        assert steps[-1] <= 5
        stepped = substrate.finish()
        whole = run_experiment(config)
        assert stepped.events_fired == whole.events_fired
        assert stable_report_digest(stepped) == stable_report_digest(whole)


def _live_query_transactions():
    return sum(1 for obj in gc.get_objects() if type(obj) is QueryTransaction)


class TestMemoryContract:
    """A run holds only its live queries: a query's transaction exists
    from its arrival to its outcome, and per-query records exist only
    under ``keep_records``.  Counted in objects, not bytes."""

    SLICES = 8

    @pytest.mark.parametrize("policy", ["unit", "odu"])
    def test_live_transactions_never_exceed_unresolved_queries(self, policy):
        config = ExperimentConfig(
            policy=policy, update_trace="med-unif", seed=7, scale=SCALES["small"]
        )
        query_trace, update_trace = get_workload(config)
        gc.collect()
        before = _live_query_transactions()
        substrate = Substrate(config, query_trace, update_trace)
        server = substrate.server
        assert _live_query_transactions() == before, "built before arrival"
        end = substrate.drain_until()
        for index in range(1, self.SLICES + 1):
            substrate.run_to(end * index / self.SLICES)
            unresolved = server.queries_submitted - sum(server.outcome_counts.values())
            assert _live_query_transactions() - before <= unresolved, f"slice {index}"
        assert server.queries_submitted == len(query_trace.queries)
        assert server.records is None
        assert substrate.finish().records is None

    def test_ids_in_trace_order_and_records_in_outcome_order(self):
        config = ExperimentConfig(
            policy="odu", update_trace="med-unif", seed=7, scale=SMOKE, keep_records=True
        )
        query_trace, update_trace = get_workload(config)
        queries = query_trace.queries
        n = len(queries)
        # Updates draw ids from the same counter, after the query block.
        assert Substrate(config, query_trace, update_trace).server.next_txn_id() == n + 1
        records = Substrate(config, query_trace, update_trace).finish().records
        assert sorted(record.txn_id for record in records) == list(range(1, n + 1))
        for record in records:
            spec = queries[record.txn_id - 1]
            assert (
                record.arrival,
                record.items,
                record.exec_time,
                record.relative_deadline,
                record.freshness_req,
            ) == (
                spec.arrival,
                spec.items,
                spec.exec_time,
                spec.relative_deadline,
                spec.freshness_req,
            )
        finish_times = [record.finish_time for record in records]
        assert finish_times == sorted(finish_times)


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
