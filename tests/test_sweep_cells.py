"""The multi-cell runner simulates each distinct cell exactly once.

Counts are pinned with zero slack by counting ``Substrate``
constructions (one per simulation), and every shared report is checked
against a fresh simulation of its own cell.
"""

import pytest

from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.experiments import runner
from repro.experiments.__main__ import main
from repro.experiments.config import POLICY_CLASSES, SCALES, ExperimentConfig
from repro.experiments.report import stable_report_bytes
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import WORKERS_ENV, _rescored, run_cells
from repro.faults.scenario import FaultScenario, FlashCrowd
from repro.obs.config import ObsConfig

SMOKE = SCALES["smoke"]
PROFILES = [PenaltyProfile.naive()] + list(TABLE2_PROFILES.values())
BLIND = sorted(name for name, cls in POLICY_CLASSES.items() if not cls.reads_profile)


@pytest.fixture
def simulations(monkeypatch):
    """A list that grows by one config per simulation run in this process."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)  # pool workers are not counted
    built = []

    class CountingSubstrate(runner.Substrate):
        def __init__(self, config, *args, **kwargs):
            built.append(config)
            super().__init__(config, *args, **kwargs)

    monkeypatch.setattr(runner, "Substrate", CountingSubstrate)
    return built


def _cell(policy, profile, **fields):
    return ExperimentConfig(
        policy=policy,
        update_trace="high-neg",
        profile=profile,
        seed=3,
        scale=SMOKE,
        **fields,
    )


class TestSimulationCounts:
    @pytest.mark.parametrize(
        "target,expected",
        [("all", 42), ("fig3", 2), ("fig4", 36), ("fig5", 9), ("fig6", 6)],
    )
    def test_cli_targets(self, target, expected, simulations, capsys):
        assert main([target, "--scale", "smoke", "--seed", "7"]) == 0
        capsys.readouterr()
        assert len(simulations) == expected

    def test_all_prints_the_standalone_targets(self, capsys):
        standalone = []
        for target in ("table1", "table2", "fig3", "fig4", "fig5", "fig6"):
            assert main([target, "--scale", "smoke", "--seed", "7"]) == 0
            standalone.append(capsys.readouterr().out)
        assert main(["all", "--scale", "smoke", "--seed", "7"]) == 0
        assert capsys.readouterr().out == "".join(standalone)


def _rescoring_matches_fresh_runs(policy):
    """Per Table 2 profile: does the policy's naive run, rescored under
    the profile, give the bytes of a fresh run under it?"""
    naive = run_experiment(_cell(policy, PenaltyProfile.naive()))
    return [
        stable_report_bytes(_rescored(naive, cell))
        == stable_report_bytes(run_experiment(cell))
        for cell in (_cell(policy, profile) for profile in PROFILES[1:])
    ]


class TestRescoredReports:
    @pytest.mark.parametrize("policy", sorted(POLICY_CLASSES))
    def test_rescoring_reproduces_exactly_the_profile_blind_policies(self, policy):
        matches = _rescoring_matches_fresh_runs(policy)
        if POLICY_CLASSES[policy].reads_profile:
            assert not any(matches)  # the check has teeth: UNIT fails it
        else:
            assert all(matches)

    def test_shared_reports_match_fresh_runs(self, simulations):
        cells = [_cell(policy, profile) for policy in BLIND for profile in PROFILES]
        shared = run_cells(cells)
        assert len(simulations) == len(BLIND)
        for cell, report in zip(cells, shared):
            assert report.config is cell
            assert stable_report_bytes(report) == stable_report_bytes(
                run_experiment(cell)
            ), cell.label()

    def test_pooled_shares_match_serial_ones(self, monkeypatch):
        cells = [_cell(policy, profile) for policy in ("imu", "qmf") for profile in PROFILES]
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = [stable_report_bytes(report) for report in run_cells(cells)]
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert [stable_report_bytes(report) for report in run_cells(cells)] == serial

    def test_unit_cells_are_not_shared_across_profiles(self, simulations):
        run_cells([_cell("unit", profile) for profile in PROFILES])
        assert len(simulations) == len(PROFILES)

    def test_records_are_copied(self, simulations):
        cells = [_cell("imu", profile, keep_records=True) for profile in PROFILES[:2]]
        first, second = run_cells(cells)
        assert len(simulations) == 1
        assert first.records == second.records
        assert first.records is not second.records


class TestDedupeBypass:
    def test_obs_on_runs_every_cell(self, simulations):
        obs = ObsConfig(enabled=True, spans=True)
        run_cells([_cell("imu", profile, obs=obs) for profile in PROFILES[:2]])
        assert len(simulations) == 2

    def test_faults_with_records_run_every_cell(self, simulations):
        crowd = FaultScenario(
            name="crowd",
            flash_crowds=(FlashCrowd(start=30.0, end=50.0, multiplier=3.0),),
        )
        run_cells(
            [
                _cell("imu", profile, faults=crowd, keep_records=True)
                for profile in PROFILES[:2]
            ]
        )
        assert len(simulations) == 2
        # Without the records there are no degradation metrics to score.
        run_cells([_cell("imu", profile, faults=crowd) for profile in PROFILES[:2]])
        assert len(simulations) == 3
