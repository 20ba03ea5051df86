"""Run a fleet end to end: partition → route → shard runs → merge.

The fleet clock is epoch-synced: every shard advances to the same
simulated time each control window (``sync_period``), the coordinator
reads the epoch summaries, and its directives apply at the start of
the next window.  ``Simulator.run(until=t)`` fires every event with
time <= t and then pins ``now`` to t, and successive slices are
byte-identical to one continuous run — so epoch slicing never perturbs
a shard's trajectory, and a no-op directive stream (the 1-shard case)
reproduces the single-server runner exactly.

Shards execute either serially in-process (``workers=0``, the
reference order) or as one OS process each (:mod:`repro.fleet.procs`);
both paths see identical specs and identical directive sequences, so
their merged reports are byte-identical — a property the test suite
asserts rather than assumes.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Dict, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SimulationReport
from repro.faults.scenario import FaultScenario
from repro.fleet.controller import Directive, EpochSummary, GlobalCoordinator
from repro.fleet.partition import build_partition
from repro.fleet.report import FleetReport, merge_reports
from repro.fleet.router import route_queries
from repro.fleet.substrate import ShardRun, ShardSpec, build_shard_specs
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
    load_window: float = 30.0
    sync_period: float = 20.0
    coordinate: bool = True
    eta: float = 0.25
    #: 0 = serial in-process shards; >= 1 = one OS process per shard
    #: (the value is a flag, not a pool size — shard count fixes the
    #: process count).
    workers: int = 0
    shard_faults: Optional[Dict[int, FaultScenario]] = None

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
        recorder = TraceRecorder(capacity=base.obs.capacity)
    plan = route_queries(
        query_trace,
        update_trace,
        partition,
        policy=fleet.router_policy,
        replica_lag=fleet.replica_lag,
        load_window=fleet.load_window,
        recorder=recorder,
    )
    specs = build_shard_specs(
        base,
        partition,
        plan,
        query_trace,
        update_trace,
        replica_lag=fleet.replica_lag,
        shard_faults=fleet.shard_faults,
    )

    coordinator = GlobalCoordinator(eta=fleet.eta, recorder=recorder)
    rebalances: List[Dict[str, object]] = []
    horizon = base.scale.horizon
    epochs = max(1, math.ceil(horizon / fleet.sync_period))

    def plan_epoch(raw_summaries: List[Dict[str, object]]) -> Optional[List[Optional[Directive]]]:
        if not fleet.coordinate:
            return None
        summaries = [EpochSummary.from_dict(raw) for raw in raw_summaries]
        planned = coordinator.plan(summaries)
        directives: List[Optional[Directive]] = []
        for directive in planned:
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

    if fleet.workers and fleet.n_shards > 1:
        from repro.fleet.procs import ShardProcessPool

        pool = ShardProcessPool(specs)
        try:
            directives: Optional[List[Optional[Directive]]] = None
            for epoch in range(1, epochs + 1):
                until = min(horizon, epoch * fleet.sync_period)
                raw = pool.run_epoch(until, directives)
                directives = plan_epoch(raw)
            reports = pool.finish()
        finally:
            pool.close()
    else:
        # Wall timing stays in locals here (and in the process worker):
        # the substrate object itself must never hold a wall-clock
        # value, only the sanctioned `wall_seconds` report field does.
        serial_started = time.perf_counter()
        runs = [ShardRun(spec) for spec in specs]
        directives = None
        for epoch in range(1, epochs + 1):
            until = min(horizon, epoch * fleet.sync_period)
            raw = []
            for index, run in enumerate(runs):
                if directives is not None and directives[index] is not None:
                    run.apply_directive(directives[index])  # type: ignore[arg-type]
                run.run_to(until)
                raw.append(run.epoch_summary())
            directives = plan_epoch(raw)
        reports = [run.finish(started=serial_started) for run in runs]

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
