"""Tests for the command-line entry point and the sweep helper."""

import pytest

from repro.core.usm import PenaltyProfile
from repro.experiments.__main__ import dossier_run, main
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_grid


class TestCli:
    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_table1_smoke_scale(self, capsys):
        assert main(["table1", "--scale", "smoke", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "high-neg" in out

    def test_fig6_smoke_scale(self, capsys):
        assert main(["fig6", "--scale", "smoke", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6(a)" in out and "Figure 6(b)" in out

    def test_run_dossier(self, capsys):
        assert main(
            ["run", "--policy", "odu", "--trace", "low-unif", "--scale", "smoke"]
        ) == 0
        out = capsys.readouterr().out
        assert "Outcomes" in out
        assert "Response times" in out
        assert "Timeline" in out
        assert "ODU" in out

    def test_run_dossier_elastic_policy(self, capsys):
        assert main(
            ["run", "--policy", "elastic", "--trace", "low-unif", "--scale", "smoke"]
        ) == 0
        assert "Elastic" in capsys.readouterr().out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "galactic"])


class TestDossierMatchesRunner:
    """The ``run`` dossier goes through the same substrate as
    ``run_experiment``: its timeline probe must not perturb results."""

    @pytest.mark.parametrize(
        "policy,trace,scale",
        [
            ("unit", "med-unif", "smoke"),
            ("odu", "low-unif", "smoke"),
            ("elastic", "low-unif", "smoke"),
            ("unit", "high-unif", "small"),
            ("qmf", "med-unif", "small"),
            ("imu", "high-unif", "small"),
        ],
    )
    def test_same_outcomes_usm_and_busy(self, policy, trace, scale):
        config = ExperimentConfig(
            policy=policy, update_trace=trace, seed=7, scale=SCALES[scale],
            keep_records=True,
        )
        report, timeline = dossier_run(config)
        reference = run_experiment(config)
        assert report.outcome_counts == reference.outcome_counts
        assert report.usm == reference.usm
        assert report.busy_by_class == reference.busy_by_class
        assert len(report.records) == reference.queries_submitted
        assert len(timeline) == 10


class TestSweep:
    def test_grid_keys_and_pairing(self):
        reports = run_grid(
            policies=("imu", "odu"),
            traces=("low-unif",),
            profiles=(PenaltyProfile.naive(),),
            scale=SCALES["smoke"],
            seed=5,
        )
        assert set(reports) == {
            ("imu", "low-unif", "naive"),
            ("odu", "low-unif", "naive"),
        }
        imu = reports[("imu", "low-unif", "naive")]
        odu = reports[("odu", "low-unif", "naive")]
        # Paired workloads: identical query stream.
        assert imu.queries_submitted == odu.queries_submitted

    def test_grid_progress_lines(self):
        import io

        from repro.obs.logging_setup import configure_logging

        stream = io.StringIO()
        configure_logging(verbosity=1, stream=stream)
        try:
            run_grid(
                policies=("imu",),
                traces=("low-unif",),
                profiles=(PenaltyProfile.naive(),),
                scale=SCALES["smoke"],
                seed=5,
                progress=True,
            )
        finally:
            configure_logging(verbosity=0)  # restore stderr/WARNING default
        assert "[sweep]" in stream.getvalue()
