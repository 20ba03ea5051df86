"""The repo permanently lints itself (tier-1).

``src/repro`` must be simlint-clean; a seeded violation (wall-clock in
``sim/engine.py``) must fail loudly with an actionable message; and the
CLI honors its exit-code and output contract.
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
    def test_src_repro_is_clean(self):
        """The determinism/USM contract holds across the whole package."""
        violations, files_checked = lint_paths([SRC_REPRO])
        rendered = "\n".join(v.render() for v in violations)
        assert not violations, f"simlint violations in src/repro:\n{rendered}"
        assert files_checked > 40  # the whole package was actually walked

    def test_cli_exits_zero_on_clean_tree(self):
        result = run_cli(str(SRC_REPRO))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no violations" in result.stdout


@pytest.fixture()
def seeded_tree(tmp_path):
    """A copy of src/repro with a wall-clock call seeded into sim/engine.py."""
    tree = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, tree)
    engine = tree / "sim" / "engine.py"
    engine.write_text(
        engine.read_text(encoding="utf-8")
        + "\n\nimport time\n\n\ndef _leak_wall_clock() -> float:\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    return tree


class TestSeededViolation:
    def test_seeded_wall_clock_fails_with_actionable_message(self, seeded_tree):
        result = run_cli(str(seeded_tree))
        assert result.returncode == 1
        assert "SL002" in result.stdout
        assert "engine.py" in result.stdout
        assert "Simulator.now" in result.stdout  # tells the author what to do

    def test_seeded_violation_in_json_output(self, seeded_tree):
        result = run_cli(str(seeded_tree), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        assert payload["counts_by_rule"].get("SL002") == 1
        (violation,) = [v for v in payload["violations"] if v["rule"] == "SL002"]
        assert violation["path"].endswith("engine.py")
        assert violation["line"] > 0

    def test_library_api_finds_seeded_violation(self, seeded_tree):
        violations, _ = lint_paths([seeded_tree])
        assert [v.rule_id for v in violations] == ["SL002"]

    def test_suppression_restores_clean_exit(self, seeded_tree):
        engine = seeded_tree / "sim" / "engine.py"
        patched = engine.read_text(encoding="utf-8").replace(
            "return time.time()",
            "return time.time()  # simlint: disable=SL002 -- test fixture",
        )
        engine.write_text(patched, encoding="utf-8")
        assert run_cli(str(seeded_tree)).returncode == 0

    def test_seeded_bare_print_fails_sl007(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(SRC_REPRO, tree)
        stats = tree / "sim" / "stats.py"
        stats.write_text(
            stats.read_text(encoding="utf-8")
            + "\n\ndef _leak_to_stdout(x: float) -> None:\n    print(x)\n",
            encoding="utf-8",
        )
        result = run_cli(str(tree))
        assert result.returncode == 1
        assert "SL007" in result.stdout
        assert "stats.py" in result.stdout
        assert "logging_setup" in result.stdout


class TestCliContract:
    def test_json_on_clean_tree(self):
        result = run_cli(str(SRC_REPRO), "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["files_checked"] > 40

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in (
            "SL001",
            "SL002",
            "SL003",
            "SL004",
            "SL006",
            "SL007",
        ):
            assert rule_id in result.stdout

    def test_missing_path_exits_2(self):
        result = run_cli("does/not/exist")
        assert result.returncode == 2
        assert "no such file" in result.stderr

    def test_unknown_rule_exits_2(self):
        result = run_cli(str(SRC_REPRO), "--select", "SL999")
        assert result.returncode == 2
        assert "SL999" in result.stderr

    def test_empty_select_exits_2(self, seeded_tree):
        # --select '' must not silently run zero rules and report clean.
        result = run_cli(str(seeded_tree), "--select", "")
        assert result.returncode == 2
        assert "names no rules" in result.stderr

    def test_select_single_rule(self, seeded_tree):
        # Selecting an unrelated rule must not report the seeded SL002.
        result = run_cli(str(seeded_tree), "--select", "SL001")
        assert result.returncode == 0

    def test_single_file_target(self):
        result = run_cli(str(SRC_REPRO / "core" / "usm.py"))
        assert result.returncode == 0
        assert "1 file checked" in result.stdout
