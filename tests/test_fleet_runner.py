"""Fleet end-to-end contracts: equivalence, determinism, exact merges.

These are the acceptance gates of the fleet subsystem:

* a 1-shard fleet is report-digest-identical to the single-server
  runner for the same config and seed;
* an N-shard fleet is byte-identical across repeats and across
  serial-vs-process shard execution;
* the merged report's aggregates equal exact recomputation from the
  shard reports.
"""

import time

import pytest

from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.db.transactions import Outcome
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import stable_report_bytes, stable_report_digest
from repro.experiments.runner import run_experiment
from repro.faults.scenario import FaultScenario, ServerSlowdown
from repro.fleet import FleetConfig, run_fleet
from repro.fleet import runner as fleet_runner
from repro.obs.config import ObsConfig

SMOKE = SCALES["smoke"]


def base_config(**overrides):
    defaults = dict(policy="unit", update_trace="med-unif", seed=7, scale=SMOKE)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def fleet_config(base, **overrides):
    defaults = dict(base=base, n_shards=2)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestOneShardEquivalence:
    """Tier-1: the fleet path is a strict generalization of the runner."""

    def test_digest_identical_to_single_server(self):
        config = base_config()
        single = stable_report_bytes(run_experiment(config))
        fleet = run_fleet(fleet_config(base_config(), n_shards=1))
        assert stable_report_bytes(fleet.merged) == single

    def test_holds_for_baseline_policy_and_other_seed(self):
        config = base_config(policy="odu", seed=11, update_trace="low-unif")
        single = stable_report_digest(run_experiment(config))
        fleet = run_fleet(fleet_config(config, n_shards=1))
        assert fleet.digest == single

    def test_holds_with_faults(self):
        faults = FaultScenario(
            name="slow", slowdowns=(ServerSlowdown(start=30.0, end=60.0, rate=0.5),)
        )
        config = base_config(faults=faults)
        single = stable_report_digest(run_experiment(config))
        fleet = run_fleet(fleet_config(base_config(faults=faults), n_shards=1))
        assert fleet.digest == single


class TestMultiShardDeterminism:
    def test_repeat_runs_byte_identical(self):
        a = run_fleet(fleet_config(base_config(), n_shards=3, replication=2,
                                   router_policy="freshness"))
        b = run_fleet(fleet_config(base_config(), n_shards=3, replication=2,
                                   router_policy="freshness"))
        assert stable_report_bytes(a.merged) == stable_report_bytes(b.merged)
        assert a.shard_digests() == b.shard_digests()
        assert a.rebalances == b.rebalances

    def test_serial_and_process_fleets_identical(self):
        serial = run_fleet(fleet_config(base_config(), n_shards=2, replication=2,
                                        router_policy="least-loaded", workers=0))
        procs = run_fleet(fleet_config(base_config(), n_shards=2, replication=2,
                                       router_policy="least-loaded", workers=1))
        assert stable_report_bytes(serial.merged) == stable_report_bytes(procs.merged)
        assert serial.shard_digests() == procs.shard_digests()
        assert serial.rebalances == procs.rebalances
        assert serial.routing == procs.routing

    def test_epoch_length_does_not_change_trajectory_without_coordination(self):
        """With the coordinator off, epoch slicing is pure bookkeeping:
        any sync period yields the same merged report."""
        coarse = run_fleet(fleet_config(base_config(), coordinate=False,
                                        sync_period=60.0))
        fine = run_fleet(fleet_config(base_config(), coordinate=False,
                                      sync_period=7.0))
        assert stable_report_bytes(coarse.merged) == stable_report_bytes(fine.merged)


class TestMergeExactness:
    @pytest.fixture(scope="class")
    def fleet(self):
        return run_fleet(fleet_config(base_config(), n_shards=4, replication=2,
                                      router_policy="freshness"))

    def test_counts_sum(self, fleet):
        for outcome in Outcome:
            assert fleet.merged.outcome_counts[outcome] == sum(
                r.outcome_counts[outcome] for r in fleet.shard_reports
            )
        assert fleet.merged.queries_submitted == sum(
            r.queries_submitted for r in fleet.shard_reports
        )
        assert fleet.merged.events_fired == sum(
            r.events_fired for r in fleet.shard_reports
        )

    def test_busy_time_is_exact_fixed_point_sum(self, fleet):
        for key, merged_value in fleet.merged.busy_by_class.items():
            exact = float_from_fixed(
                sum(fixed_from_float(r.busy_by_class[key]) for r in fleet.shard_reports)
            )
            assert merged_value == exact  # ==, not approx

    def test_every_query_routed_and_resolved(self, fleet):
        assert fleet.merged.queries_submitted == sum(fleet.routing["routed_counts"])

    def test_replicated_updates_cost_more(self, fleet):
        """2-way replication executes replica update streams: fleet-wide
        update arrivals must exceed the single-server trace's."""
        single = run_experiment(base_config())
        assert fleet.merged.update_arrivals > single.update_arrivals


class TestWallTime:
    def test_merged_wall_time_covers_the_whole_call(self, monkeypatch):
        """Routing (and every other pre-shard step) counts toward the
        fleet's wall time, not just the shard runs."""
        route = fleet_runner.route_queries

        def slow_route(*args, **kwargs):
            time.sleep(1.0)
            return route(*args, **kwargs)

        monkeypatch.setattr(fleet_runner, "route_queries", slow_route)
        started = time.perf_counter()
        fleet = run_fleet(fleet_config(base_config()))
        elapsed = time.perf_counter() - started
        assert 1.0 <= fleet.merged.wall_seconds <= elapsed


class TestCoordination:
    def test_coordinated_fleet_emits_rebalances(self):
        """Two UNIT shards fall out of step, and the coordinator answers
        with directives: every rebalance names a shard and a factor or
        modulation that is not a no-op."""
        fleet = run_fleet(fleet_config(base_config()))
        assert fleet.rebalances
        for rebalance in fleet.rebalances:
            assert rebalance["shard"] in (0, 1)
            assert rebalance["flex_factor"] != 1.0 or rebalance["modulate"] is not None
        assert any(r["flex_factor"] > 1.0 for r in fleet.rebalances)
        assert any(r["flex_factor"] < 1.0 for r in fleet.rebalances)


class TestObservability:
    def test_fleet_trace_events(self):
        obs = ObsConfig(enabled=True, keep_events=True)
        fleet = run_fleet(
            fleet_config(base_config(obs=obs), n_shards=2, replication=2,
                         router_policy="freshness")
        )
        assert fleet.obs_summary is not None
        by_kind = fleet.obs_summary["by_kind"]
        assert by_kind.get("fleet.route", 0) == fleet.merged.queries_submitted
        if fleet.rebalances:
            assert by_kind.get("fleet.rebalance", 0) == len(fleet.rebalances)

    def test_shard_spans_carry_shard_label(self):
        """Fleet shards stamp their id on every span; single-server
        span dumps omit the key (historical digests unchanged)."""
        from repro.obs.spans import build_spans

        events = [
            {"t": 0.0, "kind": "query.admit", "txn": 1, "deadline": 5.0, "items": 1},
            {"t": 0.0, "kind": "sched.enqueue", "txn": 1, "cause": "admit"},
            {"t": 0.5, "kind": "sched.dispatch", "txn": 1},
            {
                "t": 1.0,
                "kind": "query.outcome",
                "txn": 1,
                "outcome": "success",
                "arrival": 0.0,
                "latency": 1.0,
                "freshness": 1.0,
                "restarts": 0,
            },
        ]
        labeled = build_spans(events, shard=3)
        assert labeled.spans[0].as_dict()["shard"] == 3
        plain = build_spans(events)
        assert "shard" not in plain.spans[0].as_dict()

    def test_multi_shard_spans_built_per_shard(self):
        obs = ObsConfig(enabled=True, keep_events=False, spans=True)
        fleet = run_fleet(fleet_config(base_config(obs=obs), n_shards=2))
        for report in fleet.shard_reports:
            assert report.obs_spans is not None
            assert report.obs_spans["summary"]["spans"] > 0

    def test_disabled_obs_keeps_fleet_summary_none(self):
        fleet = run_fleet(fleet_config(base_config()))
        assert fleet.obs_summary is None


class TestValidation:
    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(base=base_config(), n_shards=0)

    def test_bad_sync_period_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(base=base_config(), sync_period=0.0)

    def test_report_as_dict_is_json_ready(self):
        import json

        fleet = run_fleet(fleet_config(base_config()))
        payload = json.dumps(fleet.as_dict(), sort_keys=True)
        assert "digest" in payload
