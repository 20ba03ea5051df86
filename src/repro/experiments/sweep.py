"""Run a set of experiment cells, simulating each distinct one once.

:func:`run_cells` is the one multi-cell runner: the figures, the fault
suite and :func:`run_grid` (the policies × traces × profiles product)
hand it a list of :class:`ExperimentConfig` cells and get one report
per cell back, in cell order.

Two cells share a simulation when their configs are equal under
dataclass ``==``, the penalty profile set aside for a policy class that
declares ``reads_profile = False``.  Each later cell of a group gets
the group's report rescored under its own profile with
:meth:`UsmAccumulator.from_counts`, the scoring :meth:`Substrate.finish`
applies to every run, so it is the report a fresh run of that cell
gives.  A cell whose run reads the profile outside the policy (span
attribution with observability on; degradation metrics of a faulted run
that keeps its records) never shares.  Sharing is scoped to one call.

With ``REPRO_SWEEP_WORKERS`` set to an integer > 1 the distinct
simulations fan out over a persistent process pool (``imap``: results
come back in order), so the reports are bit-identical to the serial
ones, order included.  The parent warms the workload cache before dispatch
(fork-started workers inherit it) and each worker's initializer points
the on-disk tier at the parent's directory when one is configured.  A
``base`` config carrying ``faults`` sweeps a fault scenario: every cell
inherits it, and trace-shaping scenarios fold into ``workload_key()``,
so the warm-up covers the perturbed traces too.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import multiprocessing.pool
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.usm import PenaltyProfile, UsmAccumulator
from repro.experiments.config import POLICY_CLASSES, ExperimentConfig, ExperimentScale
from repro.experiments.runner import SimulationReport, run_experiment
from repro.obs.logging_setup import get_logger
from repro.workload.cache import CACHE_DIR_ENV, default_cache

_log = get_logger(__name__)

SweepKey = Tuple[str, str, str]  # (policy, trace, profile-name)

#: Environment override for the worker count (int; > 1 enables the pool).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1  # unset or malformed override: serial


def _sweep_key(config: ExperimentConfig) -> SweepKey:
    """``(policy, trace, profile name)``: how :func:`run_grid` keys a cell."""
    return (config.policy, config.update_trace, config.profile.name or "naive")


def _log_progress(
    config: ExperimentConfig, report: SimulationReport, done: int, total: int
) -> None:
    _log.info(
        "[sweep] %d/%d %-5s %-9s %-15s USM=%+.4f (%.1fs)",
        done, total, *_sweep_key(config), report.usm, report.wall_seconds,
    )


def grid_cells(
    policies: Iterable[str],
    traces: Iterable[str],
    profiles: Iterable[PenaltyProfile],
    scale: ExperimentScale,
    seed: int = 7,
    base: Optional[ExperimentConfig] = None,
) -> List[ExperimentConfig]:
    """The grid's cells in canonical (profile, trace, policy) order,
    each ``base`` (default: a default config) with the cell's fields."""
    template = ExperimentConfig() if base is None else base
    traces = list(traces)
    policies = list(policies)
    return [
        dataclasses.replace(
            template, policy=policy, update_trace=trace, profile=profile, scale=scale, seed=seed
        )
        for profile in profiles
        for trace in traces
        for policy in policies
    ]


def _shared_form(cell: ExperimentConfig) -> Optional[ExperimentConfig]:
    """The config ``cell`` shares a simulation under (equal forms share
    one), or None when nothing may share its run."""
    if cell.obs is not None and cell.obs.enabled:
        return None  # span attribution reads the profile
    if cell.faults is not None and not cell.faults.is_empty and cell.keep_records:
        return None  # so do the degradation metrics
    if POLICY_CLASSES[cell.policy].reads_profile:
        return cell
    return dataclasses.replace(cell, profile=PenaltyProfile.naive())


def _rescored(report: SimulationReport, cell: ExperimentConfig) -> SimulationReport:
    """``report`` as the report of ``cell``, a cell sharing its run."""
    accumulator = UsmAccumulator.from_counts(cell.profile, report.outcome_counts)
    return dataclasses.replace(
        report,
        config=cell,
        usm=accumulator.average_usm(),
        total_usm=accumulator.total_usm(),
        ratios=accumulator.ratios(),
        components=accumulator.components(),
        records=None if report.records is None else list(report.records),
    )


def run_cells(
    cells: Sequence[ExperimentConfig], progress: bool = False
) -> List[SimulationReport]:
    """One report per cell, in cell order, simulating each distinct
    cell once (see the module docstring).

    With ``progress`` each finished simulation logs one INFO line.
    """
    simulations: List[ExperimentConfig] = []
    forms: List[Optional[ExperimentConfig]] = []
    serving: List[int] = []  # per cell: the index of its simulation
    for cell in cells:
        form = _shared_form(cell)
        index = len(simulations)
        if form is not None:
            index = next((i for i, other in enumerate(forms) if other == form), index)
        if index == len(simulations):
            simulations.append(cell)
            forms.append(form)
        serving.append(index)
    reports = _simulate(simulations, progress)
    results: List[SimulationReport] = []
    served = set()
    for cell, index in zip(cells, serving):
        # The simulated cell takes the report as run; the rest rescore.
        report = reports[index]
        results.append(_rescored(report, cell) if index in served else report)
        served.add(index)
    return results


def run_grid(
    policies: Iterable[str],
    traces: Iterable[str],
    profiles: Iterable[PenaltyProfile],
    scale: ExperimentScale,
    seed: int = 7,
    base: Optional[ExperimentConfig] = None,
    progress: bool = False,
) -> Dict[SweepKey, SimulationReport]:
    """Run every combination and return reports keyed by
    ``(policy, trace, profile.name)``, in grid order.

    All runs share the same seed, so every policy sees the *identical*
    workload — the paired-comparison discipline the paper's bar charts
    imply.  Through the workload cache the base query trace is generated
    once per seed and the update trace once per (trace, seed), not once
    per cell.
    """
    cells = grid_cells(policies, traces, profiles, scale, seed=seed, base=base)
    return {
        _sweep_key(cell): report
        for cell, report in zip(cells, run_cells(cells, progress=progress))
    }


def _simulate(
    configs: List[ExperimentConfig], progress: bool
) -> List[SimulationReport]:
    """Run every config, serially or over the pool; reports in order."""
    total = len(configs)
    workers = min(_env_workers(), total)
    runs: Iterable[SimulationReport] = map(run_experiment, configs)
    if workers > 1:
        # Generate each distinct workload once, up front: fork-started
        # workers inherit the warm in-memory cache, and when a disk tier
        # is configured the warm run also populates it for spawn-started
        # ones.
        default_cache().warm(configs)
        pool = _get_pool(workers, os.environ.get(CACHE_DIR_ENV, ""))
        runs = pool.imap(_run_one, configs, max(1, total // (workers * 4)))
    reports = []
    for done, report in enumerate(runs, start=1):
        reports.append(report)
        if progress:
            _log_progress(report.config, report, done, total)
    return reports


def _run_one(config: ExperimentConfig) -> SimulationReport:
    """A pool task (module-level, so workers resolve it by name)."""
    return run_experiment(config)


# ----------------------------------------------------------------------
# persistent process pool
# ----------------------------------------------------------------------

_POOL: Optional[multiprocessing.pool.Pool] = None
_POOL_STATE: Optional[Tuple[int, str]] = None  # (workers, cache dir)


def _worker_init(cache_env: str) -> None:
    """Worker initializer: point the workload cache's disk tier at the
    parent's directory so every process shares one store."""
    if cache_env:
        os.environ[CACHE_DIR_ENV] = cache_env


def shutdown_pool() -> None:
    """Terminate the persistent sweep pool (idempotent)."""
    global _POOL, _POOL_STATE
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_STATE = None


atexit.register(shutdown_pool)


def _get_pool(workers: int, cache_env: str) -> multiprocessing.pool.Pool:
    """The persistent pool, recreated only when its shape changes."""
    global _POOL, _POOL_STATE
    state = (workers, cache_env)
    if _POOL is None or _POOL_STATE != state:
        shutdown_pool()
        _POOL = multiprocessing.Pool(
            workers, initializer=_worker_init, initargs=(cache_env,)
        )
        _POOL_STATE = state
    return _POOL
