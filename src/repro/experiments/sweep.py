"""Parameter sweeps over policies × traces × penalty profiles.

:func:`run_grid` executes serially; :func:`run_grid_parallel` fans the
same grid over a persistent process pool (every run is an independent,
seeded simulation, so the results are bit-identical to the serial
ones).  Setting the ``REPRO_SWEEP_WORKERS`` environment variable to an
integer > 1 makes :func:`run_grid` route through the pool too, so every
caller — figures, benchmarks, calibration — picks up parallelism
without a signature change.

The executor is deliberately deterministic where it matters: cells are
dispatched with ``imap_unordered`` (best wall-clock: no head-of-line
blocking) but results are re-assembled in grid order by key, so the
returned dict is identical, entry order included, to the serial path.
Workload generation is shared through :mod:`repro.workload.cache`: the
parent warms its in-memory cache before dispatch (fork-start children
inherit it for free) and each worker's initializer points the on-disk
tier at the same directory when one is configured.

Fault scenarios sweep transparently: pass a ``base`` config carrying
``faults`` and every grid cell inherits the scenario via
``dataclasses.replace``.  Trace-shaping scenarios fold into
``workload_key()`` (never into ``query_key()``: they perturb the
shared base query trace after generation), so the cache warm-up covers
the perturbed traces too, and parallel results stay byte-identical to
serial ones (see tests/test_faults_integration.py).
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing
import multiprocessing.pool
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.usm import PenaltyProfile
from repro.experiments.config import ExperimentConfig, ExperimentScale
from repro.experiments.runner import SimulationReport, run_experiment
from repro.obs.logging_setup import get_logger
from repro.workload.cache import CACHE_DIR_ENV, default_cache

_log = get_logger(__name__)

SweepKey = Tuple[str, str, str]  # (policy, trace, profile-name)

#: Environment override for the worker count (int; > 1 enables the pool
#: from :func:`run_grid` as well).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def _env_workers() -> Optional[int]:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None  # malformed override: fall back to the default
    return max(1, value)


def _log_progress(
    key: SweepKey, report: SimulationReport, done: int, total: int
) -> None:
    policy, trace, profile_name = key
    _log.info(
        "[sweep] %d/%d %-5s %-9s %-15s USM=%+.4f (%.1fs)",
        done,
        total,
        policy,
        trace,
        profile_name,
        report.usm,
        report.wall_seconds,
    )


def _grid_configs(
    policies: Iterable[str],
    traces: Iterable[str],
    profiles: Iterable[PenaltyProfile],
    scale: ExperimentScale,
    seed: int,
    base: Optional[ExperimentConfig],
) -> List[Tuple[SweepKey, ExperimentConfig]]:
    """The grid cells in canonical (profile, trace, policy) order."""
    configs: List[Tuple[SweepKey, ExperimentConfig]] = []
    for profile in profiles:
        for trace in traces:
            for policy in policies:
                if base is not None:
                    config = dataclasses.replace(
                        base,
                        policy=policy,
                        update_trace=trace,
                        profile=profile,
                        scale=scale,
                        seed=seed,
                    )
                else:
                    config = ExperimentConfig(
                        policy=policy,
                        update_trace=trace,
                        profile=profile,
                        seed=seed,
                        scale=scale,
                    )
                configs.append(((policy, trace, profile.name or "naive"), config))
    return configs


def _run_keyed(
    item: Tuple[SweepKey, ExperimentConfig],
) -> Tuple[SweepKey, SimulationReport]:
    key, config = item
    return key, run_experiment(config)


def _run_serial(
    configs: List[Tuple[SweepKey, ExperimentConfig]], progress: bool
) -> Dict[SweepKey, SimulationReport]:
    """Run the cells one after another in this process, in grid order."""
    results: Dict[SweepKey, SimulationReport] = {}
    total = len(configs)
    for done, (key, config) in enumerate(configs, start=1):
        report = run_experiment(config)
        results[key] = report
        if progress:
            _log_progress(key, report, done, total)
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
    ``(policy, trace, profile.name)``.

    All runs share the same seed, so every policy sees the *identical*
    workload — the paired-comparison discipline the paper's bar charts
    imply.  Through the workload cache the base query trace is generated
    once per seed and the update trace once per (trace, seed), not once
    per cell.  With ``progress`` each finished cell logs one INFO line.

    With ``REPRO_SWEEP_WORKERS`` set above 1 the grid is delegated to
    :func:`run_grid_parallel`; results are identical either way.
    """
    env_workers = _env_workers()
    if env_workers is not None and env_workers > 1:
        return run_grid_parallel(
            policies,
            traces,
            profiles,
            scale,
            seed=seed,
            base=base,
            workers=env_workers,
            progress=progress,
        )
    return _run_serial(
        _grid_configs(policies, traces, profiles, scale, seed, base), progress
    )


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


def run_grid_parallel(
    policies: Iterable[str],
    traces: Iterable[str],
    profiles: Iterable[PenaltyProfile],
    scale: ExperimentScale,
    seed: int = 7,
    base: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
    progress: bool = False,
) -> Dict[SweepKey, SimulationReport]:
    """The :func:`run_grid` grid over a persistent process pool.

    Each cell is an independent seeded simulation, so parallel results
    are identical to serial ones — and the returned dict preserves the
    serial entry order regardless of completion order.  Cells are
    dispatched in batches of roughly a quarter of each worker's share;
    ``REPRO_WORKLOAD_CACHE`` names the on-disk workload store the
    workers share.

    Args:
        workers: Pool size; defaults to ``REPRO_SWEEP_WORKERS``, then
            the CPU count, capped by the number of cells.
        progress: Log one INFO line per finished cell, in completion
            order.
    """
    configs = _grid_configs(policies, traces, profiles, scale, seed, base)
    if not configs:
        return {}
    requested = workers if workers is not None else _env_workers()
    if requested is None:
        requested = multiprocessing.cpu_count()
    n_workers = min(requested, len(configs))
    total = len(configs)

    # Generate each distinct workload once, up front: fork-started
    # workers inherit the warm in-memory cache, and when a disk tier is
    # configured the warm run also populates it for spawn-started ones.
    default_cache().warm(config for _, config in configs)

    if n_workers <= 1:
        return _run_serial(configs, progress)

    pool = _get_pool(n_workers, os.environ.get(CACHE_DIR_ENV, ""))
    batch = max(1, total // (n_workers * 4))
    collected: Dict[SweepKey, SimulationReport] = {}
    for done, (key, report) in enumerate(
        pool.imap_unordered(_run_keyed, configs, batch), start=1
    ):
        collected[key] = report
        if progress:
            _log_progress(key, report, done, total)
    # Deterministic assembly: serial grid order, not completion order.
    return {key: collected[key] for key, _ in configs}
