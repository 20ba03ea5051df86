"""Tests for the parallel sweep and the workload CLI."""

import os

import pytest

from repro.core.usm import PenaltyProfile
from repro.experiments import runner
from repro.experiments.config import SCALES
from repro.experiments.sweep import WORKERS_ENV, grid_cells, run_cells, run_grid
from repro.workload.cache import default_cache
from repro.workload.__main__ import main as workload_main

from tests.test_determinism_regression import _stable_report_bytes

SMOKE = SCALES["smoke"]

GRID_KWARGS = dict(
    policies=("unit", "imu"),
    traces=("low-unif", "med-neg"),
    profiles=(PenaltyProfile.naive(),),
    scale=SMOKE,
    seed=5,
)


def _pooled(monkeypatch, workers="2", **kwargs):
    """``run_grid`` with ``REPRO_SWEEP_WORKERS`` set to ``workers``."""
    monkeypatch.setenv(WORKERS_ENV, workers)
    return run_grid(**kwargs)


def _progress_lines(caplog, monkeypatch, run):
    """The ``[sweep]`` INFO lines logged while ``run()`` executes."""
    import logging

    from repro.experiments import sweep

    # configure_logging (run by CLI tests) turns off propagation on the
    # "repro" logger; caplog listens on the root logger.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.INFO, logger=sweep._log.name):
        run()
    return [
        rec.getMessage() for rec in caplog.records if "[sweep]" in rec.getMessage()
    ]


class TestParallelSweep:
    def test_matches_serial_results(self, monkeypatch):
        kwargs = dict(
            policies=("imu", "odu"),
            traces=("low-unif",),
            profiles=(PenaltyProfile.naive(),),
            scale=SMOKE,
            seed=5,
        )
        serial = run_grid(**kwargs)
        parallel = _pooled(monkeypatch, **kwargs)
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].usm == parallel[key].usm
            assert serial[key].outcome_counts == parallel[key].outcome_counts

    def test_single_worker_fallback(self, monkeypatch):
        reports = _pooled(
            monkeypatch,
            workers="1",
            policies=("imu",),
            traces=("low-unif",),
            profiles=(PenaltyProfile.naive(),),
            scale=SMOKE,
            seed=5,
        )
        assert len(reports) == 1

    def test_empty_grid(self, monkeypatch):
        assert _pooled(
            monkeypatch, policies=(), traces=(), profiles=(), scale=SMOKE
        ) == {}


class TestExecutorDeterminism:
    def test_parallel_reports_byte_identical_to_serial(self, monkeypatch):
        serial = run_grid(**GRID_KWARGS)
        parallel = _pooled(monkeypatch, **GRID_KWARGS)
        assert list(serial) == list(parallel)  # entry order, not just keys
        for key in serial:
            assert _stable_report_bytes(serial[key]) == _stable_report_bytes(
                parallel[key]
            )

    def test_serial_progress_callback_fires_per_cell(self, caplog, monkeypatch):
        lines = _progress_lines(caplog, monkeypatch, lambda: run_grid(
            progress=True, **GRID_KWARGS
        ))
        assert len(lines) == 4
        assert [line.split()[1] for line in lines] == ["1/4", "2/4", "3/4", "4/4"]

    def test_parallel_progress_callback_fires_per_cell(self, caplog, monkeypatch):
        lines = _progress_lines(caplog, monkeypatch, lambda: _pooled(
            monkeypatch, progress=True, **GRID_KWARGS
        ))
        assert sorted(line.split()[1] for line in lines) == [
            "1/4", "2/4", "3/4", "4/4"
        ]

    def test_env_override_routes_run_grid_through_pool(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        baseline = run_grid(**GRID_KWARGS)
        monkeypatch.setenv(WORKERS_ENV, "2")
        routed = run_grid(**GRID_KWARGS)
        assert list(baseline) == list(routed)
        for key in baseline:
            assert _stable_report_bytes(baseline[key]) == _stable_report_bytes(
                routed[key]
            )

    def test_malformed_env_override_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        reports = run_grid(**GRID_KWARGS)
        assert len(reports) == 4


class TestPerCallPool:
    def test_pooled_calls_generate_workloads_only_in_the_parent(
        self, tmp_path, monkeypatch
    ):
        """Each pooled call warms the cache and only then forks its
        workers, so over consecutive calls on different traces every
        workload is generated exactly once, in this process."""
        log = tmp_path / "generations"
        original = runner.build_workload

        def recording(*args, **kwargs):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "build_workload", recording)
        monkeypatch.setenv(WORKERS_ENV, "3")
        default_cache().clear()
        traces = ("low-unif", "med-neg", "high-unif")
        for trace in traces:
            cells = grid_cells(
                ("unit", "imu", "odu"), (trace,), (PenaltyProfile.naive(),), SMOKE, seed=5
            )
            assert len(run_cells(cells)) == 3
        assert log.read_text().split() == [str(os.getpid())] * len(traces)


class TestWorkloadCli:
    def test_generate_and_inspect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        rc = workload_main(
            [
                "generate",
                "--scale",
                "smoke",
                "--seed",
                "5",
                "--traces",
                "low-unif",
                "med-neg",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

        rc = workload_main(["inspect", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "low-unif" in text and "med-neg" in text
        assert "corr w/ queries" in text

    def test_unknown_trace_fails(self, tmp_path, capsys):
        rc = workload_main(
            [
                "generate",
                "--scale",
                "smoke",
                "--traces",
                "med-diagonal",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            workload_main([])
