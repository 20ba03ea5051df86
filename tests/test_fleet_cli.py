"""Tests for the ``python -m repro.fleet`` CLI."""

import json

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.sweep import WORKERS_ENV
from repro.fleet.cli import _fleet_config, build_parser, main
from repro.fleet.runner import FleetConfig


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        """A bare ``run`` builds ``FleetConfig``'s own default fleet."""
        args = build_parser().parse_args(["run"])
        assert args.scale == "smoke"
        base = ExperimentConfig(scale=SCALES["smoke"])
        assert _fleet_config(args, base) == FleetConfig(base=base)

    def test_run_flags_override_the_defaults(self):
        args = build_parser().parse_args(
            ["run", "--shards", "4", "--router", "freshness", "--replica-lag", "9"]
        )
        base = ExperimentConfig(scale=SCALES["smoke"])
        assert _fleet_config(args, base) == FleetConfig(
            base=base, n_shards=4, router_policy="freshness", replica_lag=9.0
        )

    def test_smoke_rejects_fleet_timing_flags(self, capsys):
        """``smoke`` is a fixed gate: it takes no flag it would ignore."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["smoke", "--replica-lag", "50"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --replica-lag" in capsys.readouterr().err

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--router", "nope"])


class TestRunCommand:
    def test_run_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        code = main(
            [
                "run",
                "--scale",
                "smoke",
                "--shards",
                "2",
                "--replication",
                "2",
                "--router",
                "freshness",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "fleet: 2 shard(s)" in captured
        assert "digest:" in captured
        payload = json.loads(out.read_text())
        assert payload["n_shards"] == 2
        assert payload["router_policy"] == "freshness"
        assert len(payload["shard_digests"]) == 2
        assert payload["merged"]["queries"] == sum(
            shard["queries"] for shard in payload["shards"]
        )


class TestSmokeCommand:
    def test_smoke_gate_passes_and_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        code = main(["smoke", "--scale", "smoke", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "1-shard equivalence: ok" in captured
        payload = json.loads(out.read_text())
        assert set(payload["cells"]) == {"low-unif", "med-unif"}
        for cell in payload["cells"].values():
            assert cell["n_shards"] == 2


class TestFigureCommand:
    def test_pooled_figure_matches_serial(self, tmp_path, capsys, monkeypatch):
        """The figure's cells go through the sweep fan-out: under
        REPRO_SWEEP_WORKERS=2 its JSON is byte-identical to a serial run."""
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            out = tmp_path / f"figure-{workers}.json"
            assert main(["figure", "--scale", "smoke", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["cells"]) == 9
