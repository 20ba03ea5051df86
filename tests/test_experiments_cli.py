"""Tests for the command-line entry point and the sweep helper."""

import pytest

from repro.core.usm import PenaltyProfile
from repro.db.transactions import Outcome, QueryRecord
from repro.experiments.__main__ import dossier_run, main, response_time_rows
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


def _record(outcome, response):
    return QueryRecord(
        txn_id=1,
        arrival=0.0,
        items=(0,),
        exec_time=0.1,
        relative_deadline=1.0,
        freshness_req=0.9,
        outcome=outcome,
        finish_time=response,
    )


class TestDossierTables:
    def test_response_rows_split_per_outcome(self):
        rows = response_time_rows(
            [
                _record(Outcome.SUCCESS, 0.1),
                _record(Outcome.SUCCESS, 0.3),
                _record(Outcome.DEADLINE_MISS, 1.0),
                _record(Outcome.REJECTED, 0.0),
            ]
        )
        # Pooled row first (rejections excluded), then first-seen order.
        assert [row[:2] for row in rows] == [
            ["(all finished)", 3],
            ["success", 2],
            ["dmf", 1],
            ["rejected", 1],
        ]
        assert rows[1][2] == "200.0"  # success mean, ms
        assert rows[2][3:] == ["1000.0", "1000.0", "1000.0"]

    def test_no_records_no_rows(self):
        assert response_time_rows([]) == []

    def _timeline(self, policy):
        config = ExperimentConfig(
            policy=policy, update_trace="med-unif", seed=7, scale=SCALES["smoke"],
        )
        _report, rows = dossier_run(config)
        return rows

    def test_timeline_plain_policy_has_no_knobs(self):
        rows = self._timeline("imu")
        assert len(rows) == 10
        assert all(row[5] == "" and row[6] == "" for row in rows)

    def test_timeline_captures_unit_knobs(self):
        rows = self._timeline("unit")
        assert [float(row[0]) for row in rows] == sorted(float(row[0]) for row in rows)
        assert all(row[5] != "" and isinstance(row[6], int) for row in rows)


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
