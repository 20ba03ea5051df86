"""Run a fleet end to end: partition → route → shard runs → merge.

The fleet clock is epoch-synced: every shard advances to the same
simulated time each control window (``sync_period``), the coordinator
reads the epoch summaries, and its directives apply at the start of
the next window.  ``Simulator.run(until=t)`` fires every event with
time <= t and then pins ``now`` to t, and successive slices are
byte-identical to one continuous run — so epoch slicing never perturbs
a shard's trajectory, and a no-op directive stream (the 1-shard case)
reproduces the single-server runner exactly.

One epoch loop steps every shard with :meth:`ShardRun.step`, either
serially in-process (``workers=0``, the reference order) or in one OS
process per shard (:mod:`repro.fleet.procs`); both see identical specs
and identical directive sequences, so their merged reports are
byte-identical — a property the test suite asserts rather than
assumes.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.fleet.controller import Directive, EpochSummary, GlobalCoordinator
from repro.fleet.partition import build_partition
from repro.fleet.procs import ShardProcessPool
from repro.fleet.report import FleetReport, merge_reports
from repro.fleet.router import route_queries
from repro.fleet.substrate import ShardRun, build_shard_specs
from repro.obs.trace import TraceRecorder
from repro.workload.cache import get_workload


@dataclasses.dataclass
class FleetConfig:
    """Specification of one fleet run."""

    base: ExperimentConfig
    n_shards: int = 2
    replication: int = 1
    partition_strategy: str = "block"
    router_policy: str = "primary"
    replica_lag: float = 5.0
    sync_period: float = 20.0
    coordinate: bool = True
    #: 0 = serial in-process shards; >= 1 = one OS process per shard
    #: (the value is a flag, not a pool size — shard count fixes the
    #: process count).
    workers: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")
        if self.replica_lag < 0:
            raise ValueError("replica_lag must be non-negative")


def run_fleet(fleet: FleetConfig) -> FleetReport:
    """Run one fleet and merge the shard reports.

    The merged report's ``wall_seconds`` times this whole call: the
    workload fetch, partitioning, routing and spec building as well as
    the shard runs (each shard report keeps its own timing).
    """
    started = time.perf_counter()
    base = fleet.base
    # The fleet shares the single-server workload pipeline (and its
    # cache): trace-shaping fault perturbation happens here, once,
    # before the split — shard-level FaultDrivers handle only
    # server-level faults.
    query_trace, update_trace = get_workload(base)

    partition = build_partition(
        base.scale.n_items,
        fleet.n_shards,
        replication=fleet.replication,
        strategy=fleet.partition_strategy,
    )
    recorder: Optional[TraceRecorder] = None
    if base.obs is not None and base.obs.enabled:
        recorder = TraceRecorder(capacity=None)  # summarized only: no ring
    plan = route_queries(
        query_trace,
        update_trace,
        partition,
        policy=fleet.router_policy,
        replica_lag=fleet.replica_lag,
        recorder=recorder,
    )
    specs = build_shard_specs(
        base,
        partition,
        plan,
        query_trace,
        update_trace,
        replica_lag=fleet.replica_lag,
    )

    coordinator = GlobalCoordinator(recorder=recorder)
    rebalances: List[Dict[str, object]] = []
    horizon = base.scale.horizon
    epochs = max(1, math.ceil(horizon / fleet.sync_period))

    no_directives: List[Optional[Directive]] = [None] * len(specs)

    def plan_epoch(summaries: List[EpochSummary]) -> List[Optional[Directive]]:
        if not fleet.coordinate:
            return no_directives
        directives: List[Optional[Directive]] = []
        for directive in coordinator.plan(summaries):
            if directive.is_noop:
                directives.append(None)
            else:
                directives.append(directive)
                rebalances.append(
                    {
                        "time": summaries[directive.shard_id].time,
                        "shard": directive.shard_id,
                        "flex_factor": directive.flex_factor,
                        "modulate": directive.modulate,
                    }
                )
        return directives

    # One epoch loop; serial and process shards differ only in how each
    # epoch is stepped and how the shards finish.  Wall timing stays in
    # locals here (and in the process worker): the substrate object
    # itself must never hold a wall-clock value, only the sanctioned
    # `wall_seconds` report field does.
    pool = ShardProcessPool(specs) if fleet.workers and fleet.n_shards > 1 else None
    serial_started = time.perf_counter()
    runs = [ShardRun(spec) for spec in specs] if pool is None else []
    try:
        directives = no_directives
        for epoch in range(1, epochs + 1):
            until = min(horizon, epoch * fleet.sync_period)
            if pool is None:
                summaries = [run.step(until, d) for run, d in zip(runs, directives)]
            else:
                summaries = pool.run_epoch(until, directives)
            directives = plan_epoch(summaries)
        if pool is None:
            reports = [run.finish(started=serial_started) for run in runs]
        else:
            reports = pool.finish()
    finally:
        if pool is not None:
            pool.close()

    merged = merge_reports(base, specs, reports, time.perf_counter() - started)
    obs_summary = recorder.summary() if recorder is not None else None
    return FleetReport(
        n_shards=fleet.n_shards,
        replication=fleet.replication,
        partition_strategy=fleet.partition_strategy,
        router_policy=fleet.router_policy,
        merged=merged,
        shard_reports=list(reports),
        routing=plan.summary(),
        rebalances=rebalances,
        epochs=epochs,
        obs_summary=obs_summary,
    )

