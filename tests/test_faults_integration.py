"""End-to-end fault injection: runner integration and determinism.

The acceptance gates of the fault subsystem:

* a config with no scenario (or an *empty* scenario) is byte-identical
  to one without the field at all;
* with a scenario, same-seed runs are byte-identical — serially and
  through the parallel sweep;
* degradation metrics and trace markers appear exactly when asked for.
"""

import dataclasses

from repro.core.usm import PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import WORKERS_ENV, run_grid
from repro.faults import (
    FaultScenario,
    FlashCrowd,
    HotspotShift,
    ServerSlowdown,
    UpdateStorm,
)
from repro.obs.config import ObsConfig

from tests.test_determinism_regression import _stable_report_bytes

SMOKE = SCALES["smoke"]


def combined_scenario():
    return FaultScenario(
        name="combined",
        flash_crowds=[FlashCrowd(start=30.0, end=50.0, multiplier=3.0)],
        update_storms=[UpdateStorm(start=40.0, end=60.0, period_factor=0.25)],
        hotspot_shifts=[HotspotShift(at=60.0, rotation=13)],
        slowdowns=[ServerSlowdown(start=45.0, end=70.0, rate=0.5)],
    )


def config(**overrides):
    base = dict(policy="unit", update_trace="med-unif", seed=7, scale=SMOKE)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNoScenarioIdentity:
    def test_empty_scenario_is_byte_identical_to_none(self):
        plain = _stable_report_bytes(run_experiment(config()))
        empty = _stable_report_bytes(
            run_experiment(config(faults=FaultScenario(name="none")))
        )
        assert plain == empty

    def test_slowdown_only_scenario_shares_the_workload_key(self):
        slow = config(
            faults=FaultScenario(
                name="slow",
                slowdowns=[ServerSlowdown(start=10.0, end=20.0, rate=0.5)],
            )
        )
        assert slow.workload_key() == config().workload_key()


class TestScenarioDeterminism:
    def test_same_seed_byte_identical_with_faults(self):
        cfg = config(faults=combined_scenario())
        first = _stable_report_bytes(run_experiment(cfg))
        second = _stable_report_bytes(run_experiment(dataclasses.replace(cfg)))
        assert first == second

    def test_faults_actually_change_the_run(self):
        assert _stable_report_bytes(
            run_experiment(config(faults=combined_scenario()))
        ) != _stable_report_bytes(run_experiment(config()))

    def test_slowdown_changes_results_without_changing_the_workload(self):
        slow = FaultScenario(
            name="slow",
            slowdowns=[ServerSlowdown(start=30.0, end=90.0, rate=0.5)],
        )
        assert _stable_report_bytes(
            run_experiment(config(faults=slow))
        ) != _stable_report_bytes(run_experiment(config()))

    def test_parallel_sweep_byte_identical_to_serial(self, monkeypatch):
        kwargs = dict(
            policies=("unit", "imu"),
            traces=("med-unif",),
            profiles=(PenaltyProfile.naive(),),
            scale=SMOKE,
            seed=7,
            base=config(faults=combined_scenario()),
        )
        serial = run_grid(**kwargs)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = run_grid(**kwargs)
        assert list(serial) == list(parallel)
        for key in serial:
            assert _stable_report_bytes(serial[key]) == _stable_report_bytes(
                parallel[key]
            )


class TestReportingSurface:
    def test_degradation_metrics_need_records(self):
        without = run_experiment(config(faults=combined_scenario()))
        assert without.degradation is None
        with_records = run_experiment(
            config(faults=combined_scenario(), keep_records=True)
        )
        degradation = with_records.degradation
        assert degradation is not None
        labels = [w["label"] for w in degradation["windows"]]
        assert labels == [
            "flash-crowd-0",
            "update-storm-0",
            "server-slowdown-0",
            "hotspot-shift-0",
        ]

    def test_no_faults_no_degradation_even_with_records(self):
        report = run_experiment(config(keep_records=True))
        assert report.degradation is None

    def test_trace_markers_present_and_trajectory_unchanged(self, tmp_path):
        cfg = config(faults=combined_scenario())
        plain = _stable_report_bytes(run_experiment(cfg))
        traced_report = run_experiment(
            dataclasses.replace(
                cfg,
                obs=ObsConfig(
                    enabled=True, out_dir=str(tmp_path), keep_events=True
                ),
            )
        )
        # Observability must not bend the trajectory under faults.
        assert _stable_report_bytes(traced_report) == plain
        events = traced_report.obs_events or []
        starts = [e for e in events if e["kind"] == "fault.start"]
        ends = [e for e in events if e["kind"] == "fault.end"]
        assert [e["label"] for e in starts] == [
            "flash-crowd-0",
            "update-storm-0",
            "server-slowdown-0",
            "hotspot-shift-0",
        ]
        assert len(ends) == len(starts)
