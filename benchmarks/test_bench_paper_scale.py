"""Paper-scale numbers are pinned: rebuild ``artifacts/paper_scale.json``.

Runs every figure cell of ``python -m repro.experiments all --scale
paper --seed 7`` (42 simulations) through ``scripts/paper_scale.py``
with the simulations split over two worker processes, and compares each
cell's outcome counts, USM, drop share and report digest with the
committed artifact.  A change that moves a paper-scale number must
update the artifact and EXPERIMENTS.md together.  About a minute on two
cores::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_paper_scale.py -q
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "paper_scale.py"


def _script():
    spec = importlib.util.spec_from_file_location("paper_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paper_scale_artifact_is_unchanged(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
    paper_scale = _script()
    pinned_text = paper_scale.ARTIFACT.read_text(encoding="utf-8")
    rebuilt_text = paper_scale.render(paper_scale.build("paper", 7))
    pinned = json.loads(pinned_text)
    rebuilt = json.loads(rebuilt_text)
    assert len(rebuilt["cells"]) == len(pinned["cells"])
    moved = [
        f"{new['figure']} {new['cell']}"
        for old, new in zip(pinned["cells"], rebuilt["cells"])
        if old != new
    ]
    assert moved == []
    assert rebuilt_text == pinned_text
