"""Pin the paper-scale numbers: one record per figure cell of ``all``.

``python -m repro.experiments all --scale paper --seed 7`` renders
Figures 3-6 from the cells the four ``figure*_cells`` builders return,
simulated through one :func:`repro.experiments.sweep.run_cells` call.
This script runs the same cells the same way and writes, for every
cell in that order, its figure, label, outcome counts, USM, update
drop share and :func:`~repro.experiments.report.stable_report_digest`
to ``artifacts/paper_scale.json``.  ``benchmarks/test_bench_paper_scale.py``
rebuilds the file and diffs it, so a change that moves a paper-scale
number shows up as a diff of this file.

Usage::

    PYTHONPATH=src python scripts/paper_scale.py            # rewrite the artifact
    PYTHONPATH=src python scripts/paper_scale.py --check    # rebuild and diff

``REPRO_SWEEP_WORKERS`` spreads the simulations over worker processes
as it does for ``all``; the records do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.experiments import figures
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import stable_report_digest
from repro.experiments.runner import SimulationReport
from repro.experiments.sweep import run_cells

ARTIFACT = Path(__file__).resolve().parent.parent / "artifacts" / "paper_scale.json"

#: The figures of ``all``, in its order, with their cell builders.
FIGURES = (
    ("fig3", figures.figure3_cells),
    ("fig4", figures.figure4_cells),
    ("fig5", figures.figure5_cells),
    ("fig6", figures.figure6_cells),
)


def cells(scale: str, seed: int) -> List[Tuple[str, ExperimentConfig]]:
    """Every figure cell of ``all --scale <scale> --seed <seed>``."""
    return [
        (name, cell)
        for name, build in FIGURES
        for cell in build(SCALES[scale], seed=seed)
    ]


def record(figure: str, report: SimulationReport) -> Dict[str, object]:
    arrivals = report.update_arrivals
    return {
        "figure": figure,
        "cell": report.config.label(),
        "outcome_counts": {
            outcome.value: count for outcome, count in report.outcome_counts.items()
        },
        "usm": report.usm,
        "drop_share": report.updates_dropped / arrivals if arrivals else 0.0,
        "digest": stable_report_digest(report),
    }


def build(scale: str = "paper", seed: int = 7) -> Dict[str, object]:
    figure_cells = cells(scale, seed)
    reports = run_cells([cell for _, cell in figure_cells])
    return {
        "command": f"python -m repro.experiments all --scale {scale} --seed {seed}",
        "scale": scale,
        "seed": seed,
        "cells": [record(name, report) for (name, _), report in zip(figure_cells, reports)],
    }


def render(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ARTIFACT)
    parser.add_argument(
        "--check", action="store_true", help="diff against --out instead of writing it"
    )
    args = parser.parse_args(argv)
    text = render(build(args.scale, args.seed))
    if not args.check:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
        return 0
    pinned = json.loads(args.out.read_text(encoding="utf-8"))
    rebuilt = json.loads(text)
    moved = [
        f"{new['figure']} {new['cell']}"
        for old, new in zip(pinned["cells"], rebuilt["cells"])
        if old != new
    ]
    if len(pinned["cells"]) != len(rebuilt["cells"]):
        moved.append(f"{len(pinned['cells'])} cells pinned, {len(rebuilt['cells'])} rebuilt")
    for line in moved:
        print(f"moved: {line}")
    return 1 if moved or pinned != rebuilt else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
