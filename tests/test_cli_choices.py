"""Every ``--scale``, ``--policy`` and ``--trace`` flag of the ``obs``,
``faults`` and ``fleet`` commands, the comma lists of ``obs dash`` and
every fault-scenario name reject an unknown name with argparse's usage
error (exit status 2) before anything runs."""

import pytest

from repro.faults.cli import main as faults_main
from repro.fleet.cli import main as fleet_main
from repro.obs.cli import main as obs_main

MAINS = {"obs": obs_main, "faults": faults_main, "fleet": fleet_main}

#: ``(command, subcommand and its required arguments, flag)``; a flag
#: without a leading ``--`` names a positional argument.
CASES = [
    ("obs", ["smoke", "--out", "d"], "--scale"),
    ("obs", ["smoke", "--out", "d"], "--policy"),
    ("obs", ["smoke", "--out", "d"], "--trace"),
    ("obs", ["dash", "--out", "d.html"], "--scale"),
    ("obs", ["dash", "--out", "d.html"], "--policies"),
    ("obs", ["dash", "--out", "d.html"], "--traces"),
    ("faults", ["list"], "--scale"),
    ("faults", ["run"], "scenario"),
    ("faults", ["run", "pile-up"], "--scale"),
    ("faults", ["run", "pile-up"], "--policy"),
    ("faults", ["run", "pile-up"], "--trace"),
    ("faults", ["suite"], "scenario"),
    ("faults", ["suite", "pile-up"], "--scale"),
    ("faults", ["suite", "pile-up"], "--trace"),
    ("faults", ["smoke", "--out", "d"], "--scenario"),
    ("fleet", ["run"], "--scale"),
    ("fleet", ["run"], "--policy"),
    ("fleet", ["run"], "--trace"),
    ("fleet", ["smoke"], "--scale"),
    ("fleet", ["smoke"], "--policy"),
    ("fleet", ["figure"], "--scale"),
    ("fleet", ["figure"], "--policy"),
]


@pytest.mark.parametrize(
    "command, argv, flag",
    CASES,
    ids=[f"{command}-{argv[0]}{flag}" for command, argv, flag in CASES],
)
def test_bad_value_is_a_usage_error(command, argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        MAINS[command](argv + ([flag] if flag.startswith("--") else []) + ["bogus"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: invalid choice: 'bogus'" in capsys.readouterr().err
