"""Experiment harness: regenerates every table and figure of the
paper's evaluation (Section 4).

* :mod:`repro.experiments.config` — experiment configuration and scales.
* :mod:`repro.experiments.runner` — :class:`Substrate`, the one assembly
  path for a simulated server, and :func:`run_experiment` on top of it.
* :mod:`repro.experiments.sweep` — the multi-cell runner (each distinct
  cell simulated once) and grids over traces × policies × profiles.
* :mod:`repro.experiments.tables` — Table 1 and Table 2.
* :mod:`repro.experiments.figures` — Figures 3, 4, 5, and 6.
* :mod:`repro.experiments.report` — ASCII rendering helpers.
"""

from repro.experiments.config import (
    SCALES,
    ExperimentConfig,
    ExperimentScale,
    build_experiment,
)
from repro.experiments.runner import SimulationReport, Substrate, run_experiment
from repro.experiments.sweep import run_grid

__all__ = [
    "SCALES",
    "ExperimentConfig",
    "ExperimentScale",
    "SimulationReport",
    "Substrate",
    "build_experiment",
    "run_experiment",
    "run_grid",
]
