"""The repo permanently lints itself with the program rules (tier-1).

``src/repro`` must be clean under SF001-SF004; a seeded violation of
each SF rule must fail the one ``python -m repro.lint`` command loudly
with an actionable message; and that command honors the exit-code,
JSON and SARIF contracts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
PROGRAM_RULES = ["SF001", "SF002", "SF003", "SF004"]


def run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestSelfCheck:
    def test_src_repro_is_flow_clean(self):
        """The whole-program contract holds: literal stream names, no
        clock-domain crossings, pure pool payloads, no engine escapes."""
        violations, files_checked = lint_paths([SRC_REPRO], select=PROGRAM_RULES)
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"program-rule violations in src/repro:\n{rendered}"
        assert files_checked > 40  # the whole package was actually walked

    def test_cli_exits_zero_on_clean_tree(self):
        result = run_cli(str(SRC_REPRO))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no violations" in result.stdout
        assert "simlint" in result.stdout

    def test_performance_budget(self):
        """A full self-run of every rule completes in < 15s."""
        import time as _time

        start = _time.perf_counter()
        lint_paths([SRC_REPRO])
        assert _time.perf_counter() - start < 15.0


def _seed(tmp_path, relpath, extra):
    tree = tmp_path / "repro"
    if not tree.exists():
        shutil.copytree(SRC_REPRO, tree)
    target = tree / relpath
    target.write_text(target.read_text(encoding="utf-8") + extra, encoding="utf-8")
    return tree


@pytest.fixture()
def sf002_tree(tmp_path):
    """src/repro with a wall-clock value scheduled as sim time."""
    return _seed(
        tmp_path,
        Path("experiments") / "runner.py",
        "\n\ndef _leak_wall_into_sim() -> None:\n"
        "    sim = Simulator()\n"
        "    sim.schedule(time.perf_counter(), lambda: None)\n",
    )


class TestSeededViolations:
    def test_sf001_unresolvable_stream_name(self, tmp_path):
        tree = _seed(
            tmp_path,
            Path("core") / "lottery.py",
            "\n\nfrom repro.sim.rng import RandomStreams\n"
            "\n\ndef _leak_derived_stream_name(streams: RandomStreams, k: int):\n"
            "    return streams.stream(str(k) + '-draws')\n",
        )
        result = run_cli(str(tree))
        assert result.returncode == 1
        assert "SF001" in result.stdout
        assert "lottery.py" in result.stdout
        assert "cannot be resolved" in result.stdout

    def test_sf001_cross_component_collision(self, tmp_path):
        tree = _seed(
            tmp_path,
            Path("core") / "lottery.py",
            "\n\nfrom repro.sim.rng import RandomStreams\n"
            "\n\ndef _claim_a(streams: RandomStreams):\n"
            "    return streams.stream('collision-fixture')\n",
        )
        _seed(
            tmp_path,
            Path("db") / "server.py",
            "\n\nfrom repro.sim.rng import RandomStreams\n"
            "\n\ndef _claim_b(streams: RandomStreams):\n"
            "    return streams.stream('collision-fixture')\n",
        )
        result = run_cli(str(tree))
        assert result.returncode == 1
        assert "SF001" in result.stdout
        assert "collision-fixture" in result.stdout

    def test_sf002_wall_clock_reaching_sim_time(self, sf002_tree):
        result = run_cli(str(sf002_tree))
        assert result.returncode == 1
        assert "SF002" in result.stdout
        assert "runner.py" in result.stdout
        assert "pure function of the seed" in result.stdout

    def test_sf003_lambda_shipped_to_pool(self, tmp_path):
        tree = _seed(
            tmp_path,
            Path("experiments") / "sweep.py",
            "\n\ndef _leak_lambda_to_pool(configs):\n"
            "    with fork_context().Pool(2) as pool:\n"
            "        return pool.map(lambda c: c, configs)\n",
        )
        result = run_cli(str(tree))
        assert result.returncode == 1
        assert "SF003" in result.stdout
        assert "sweep.py" in result.stdout

    def test_sf004_lock_manager_mutation_outside_locks(self, tmp_path):
        tree = _seed(
            tmp_path,
            Path("core") / "lottery.py",
            "\n\ndef _leak_lock_mutation(table: 'LockManager') -> None:\n"
            "    table._held_by = {}\n"
            "\n\nfrom repro.db.locks import LockManager\n",
        )
        result = run_cli(str(tree))
        assert result.returncode == 1
        assert "SF004" in result.stdout
        assert "lottery.py" in result.stdout

    def test_suppression_restores_clean_exit(self, sf002_tree):
        runner = sf002_tree / "experiments" / "runner.py"
        patched = runner.read_text(encoding="utf-8").replace(
            "sim.schedule(time.perf_counter(), lambda: None)",
            "sim.schedule(time.perf_counter(), lambda: None)"
            "  # simlint: disable=SF002 -- test fixture",
        )
        runner.write_text(patched, encoding="utf-8")
        assert run_cli(str(sf002_tree)).returncode == 0


class TestCliContract:
    def test_json_output_on_seeded_tree(self, sf002_tree):
        result = run_cli(str(sf002_tree), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        assert payload["tool"] == "simlint"
        assert payload["counts_by_rule"].get("SF002", 0) >= 1
        violation = [v for v in payload["violations"] if v["rule"] == "SF002"][0]
        assert violation["path"].endswith("runner.py")
        assert violation["line"] > 0

    def test_sarif_output_contract(self, sf002_tree):
        result = run_cli(str(sf002_tree), "--format", "sarif")
        assert result.returncode == 1
        sarif = json.loads(result.stdout)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == PROGRAM_RULES + ["SL001", "SL003", "SL004", "SL006", "SL007"]
        results = run["results"]
        assert any(r["ruleId"] == "SF002" for r in results)
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith(".py")
        assert loc["region"]["startLine"] > 0

    def test_unknown_flow_rule_exits_2(self):
        result = run_cli(str(SRC_REPRO), "--select", "SF999")
        assert result.returncode == 2
        assert "SF999" in result.stderr

    def test_select_unrelated_rule_hides_seeded_finding(self, sf002_tree):
        result = run_cli(str(sf002_tree), "--select", "SF004")
        assert result.returncode == 0

    def test_unknown_suppression_id_warns(self, tmp_path):
        tree = _seed(
            tmp_path,
            Path("core") / "lottery.py",
            "\n\n_FIXTURE = 1  # simlint: disable=SF099 -- typo'd id\n",
        )
        result = run_cli(str(tree))
        assert "unknown rule 'SF099'" in result.stderr
