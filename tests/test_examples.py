"""Every script under examples/ runs to completion and prints something."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name", sorted(path.stem for path in EXAMPLES.glob("*.py")))
def test_example_main_runs(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])  # default CLI options
    module.main()
    assert capsys.readouterr().out.strip()
