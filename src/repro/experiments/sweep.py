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

The distinct simulations go through :func:`fan_out`, the one way to
run independent tasks in parallel (``python -m repro.fleet figure``
runs its fleet cells through it too).  With ``REPRO_SWEEP_WORKERS`` set
to an integer > 1 it opens a process pool for the one call (``imap``:
results come back in order), so the reports are bit-identical to the
serial ones, order included.  The parent warms the workload cache
before it opens the pool, so the fork-started workers inherit every
workload of the call and generate none.  A ``base`` config carrying
``faults`` sweeps a fault scenario: every cell inherits it, and
trace-shaping scenarios fold into ``workload_key()``, so the warm-up
covers the perturbed traces too.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.core.usm import PenaltyProfile, UsmAccumulator
from repro.experiments.config import POLICY_CLASSES, ExperimentConfig, ExperimentScale
from repro.experiments.runner import SimulationReport, run_experiment
from repro.obs.logging_setup import get_logger
from repro.workload.cache import default_cache

_log = get_logger(__name__)

SweepKey = Tuple[str, str, str]  # (policy, trace, profile-name)

#: Environment override for the worker count (int; > 1 enables the pool).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1  # unset or malformed override: serial


def _sweep_key(config: ExperimentConfig) -> SweepKey:
    """``(policy, trace, profile name)``: how :func:`run_grid` keys a cell."""
    return (config.policy, config.update_trace, config.profile.name or "naive")


def _log_progress(report: SimulationReport, done: int, total: int) -> None:
    _log.info(
        "[sweep] %d/%d %-5s %-9s %-15s USM=%+.4f (%.1fs)",
        done, total, *_sweep_key(report.config), report.usm, report.wall_seconds,
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
    reports: List[SimulationReport] = []
    for done, report in enumerate(fan_out(_run_one, simulations, simulations), start=1):
        reports.append(report)
        if progress:
            _log_progress(report, done, len(simulations))
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


def _run_one(config: ExperimentConfig) -> SimulationReport:
    """A pool task (module-level, so workers resolve it by name)."""
    return run_experiment(config)


def fan_out(
    function: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    workloads: Iterable[ExperimentConfig],
) -> Iterator[_Result]:
    """``function`` over ``tasks``, results in task order.

    Serial in this process unless ``REPRO_SWEEP_WORKERS`` > 1 and there
    is more than one task.  Then the parent first generates every
    workload of ``workloads`` into the default cache and only then opens
    a fork-started pool, so the workers inherit this call's workloads;
    the pool is closed when the iteration ends.  ``function`` must be
    module-level: workers resolve it by name.
    """
    workers = min(_env_workers(), len(tasks))
    if workers <= 1:
        yield from map(function, tasks)
        return
    default_cache().warm(workloads)
    with fork_context().Pool(workers) as pool:
        yield from pool.imap(function, tasks, max(1, len(tasks) // (workers * 4)))


def fork_context() -> multiprocessing.context.BaseContext:
    """The ``fork`` start method, which carries the parent's warm module
    state (the workload cache) into the workers; the platform default
    where fork does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()
