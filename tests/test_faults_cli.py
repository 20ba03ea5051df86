"""Tests for ``python -m repro.faults`` and the degradation suite."""

import json

import pytest

from repro.experiments.config import SCALES
from repro.faults.cli import main as faults_main
from repro.faults.scenarios import canned
from repro.faults.suite import (
    render_suite,
    run_suite,
    suite_payload,
    write_suite_report,
)

SMOKE = SCALES["smoke"]


@pytest.fixture(scope="module")
def flash_results():
    """One small two-policy suite run, shared across tests."""
    scenario = canned("flash-crowd", SMOKE.horizon, SMOKE.n_items)
    return scenario, run_suite(scenario, scale="smoke", policies=("unit", "odu"))


class TestSuite:
    def test_per_policy_degradation_rows(self, flash_results):
        scenario, results = flash_results
        assert [r.policy for r in results] == ["unit", "odu"]
        for result in results:
            rows = result.window_rows()
            assert [row["label"] for row in rows] == ["flash-crowd-0"]
            assert rows[0]["dip_depth"] is not None

    def test_policies_share_the_workload(self, flash_results):
        _, results = flash_results
        keys = {r.report.config.workload_key() for r in results}
        assert len(keys) == 1  # paired comparison: identical traces

    def test_render_mentions_every_policy_and_chart(self, flash_results):
        scenario, results = flash_results
        text = render_suite(results, scenario)
        assert "unit" in text and "odu" in text
        assert "dip depth" in text
        assert "Worst USM dip depth" in text
        assert "Worst recovery time" in text

    def test_payload_is_json_serializable(self, flash_results):
        scenario, results = flash_results
        payload = suite_payload(results, scenario)
        text = json.dumps(payload)
        assert "flash-crowd" in text

    def test_write_report_artifacts(self, flash_results, tmp_path):
        scenario, results = flash_results
        paths = write_suite_report(results, scenario, str(tmp_path))
        assert all(path.exists() for path in paths)
        with open(paths[0], "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert [p["policy"] for p in payload["policies"]] == ["unit", "odu"]


class TestCli:
    def test_list(self, capsys):
        assert faults_main(["list"]) == 0
        text = capsys.readouterr().out
        assert "pile-up" in text
        assert "flash-crowd-0" in text

    def test_run_writes_degradation_json(self, tmp_path, capsys):
        out = tmp_path / "deg.json"
        rc = faults_main(
            ["run", "flash-crowd", "--policy", "odu", "--out", str(out)]
        )
        assert rc == 0
        assert "Degradation" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["scenario"] == "flash-crowd"
        assert payload["windows"][0]["label"] == "flash-crowd-0"

    def test_unknown_scenario_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            faults_main(["run", "does-not-exist"])
        assert exit_info.value.code == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            faults_main([])
