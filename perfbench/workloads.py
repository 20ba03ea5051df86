"""The benchmark's four paper-scale workloads and their correctness gates.

Every workload runs at ``paper`` scale (1024 items, 3000 s horizon)
under the naive penalty profile, from the seed the benchmark is given.
A *pass* runs the whole workload once through the package's public
entry points (``run_experiment``, ``run_grid``, ``run_fleet``) with
the workload memory cache cleared first, so each pass pays cold trace
generation exactly as a fresh process would.  A pass's set-up time is
the program's own: ``phase_seconds["workload"] + ["setup"]`` of each
report, and for the fleet the time ``run_fleet`` spends in its own
``get_workload``, ``build_partition``, ``route_queries``,
``build_shard_specs`` and ``ShardRun`` construction calls.

Why each workload exists, and which layer it leaves idle, is written
down in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.usm import PenaltyProfile
from repro.experiments import runner, sweep
from repro.experiments.config import SCALES, ExperimentConfig, build_experiment
from repro.experiments.report import stable_report_digest
from repro.experiments.runner import SimulationReport
from repro.fleet import runner as fleet_runner
from repro.obs.config import ObsConfig
from repro.sim.rng import derive_seed
from repro.workload.cache import default_cache, get_workload

SCALE = "paper"

#: Queries a paper-scale trace holds on average: horizon x utilization
#: / mean service.  Trace volume varies by about 15% (quartile spread)
#: across seeds with the number of flash crowds, and every timing
#: scales with it, so each run uses an input seed whose trace holds
#: the nominal volume to within ``VOLUME_TOLERANCE``.
NOMINAL_QUERIES = round(
    SCALES[SCALE].horizon * SCALES[SCALE].query_utilization / SCALES[SCALE].mean_query_service
)
VOLUME_TOLERANCE = 0.03

#: Trace ring capacity for ``observed_unit``: a paper-scale UNIT cell
#: records ~600k events, the default 262,144 would drop more than half.
OBS_CAPACITY = 4_000_000

#: ``run_fleet``'s set-up steps, by their names in ``repro.fleet.runner``.
FLEET_SETUP_CALLS = (
    "get_workload",
    "build_partition",
    "route_queries",
    "build_shard_specs",
    "ShardRun",
)


@dataclasses.dataclass
class PassResult:
    """One pass: its timings and every report it produced."""

    wall_s: float
    #: The program's own set-up seconds: cold trace generation and
    #: substrate assembly (plus partition, routing and specs for a fleet).
    setup_s: float
    #: Simulate + finalize seconds (what ``queries_per_s`` divides by).
    work_s: float
    queries: int
    events: int
    update_arrivals: int
    reports: Dict[str, SimulationReport]
    #: Per-shard reports of a fleet run (empty otherwise).
    shard_reports: List[SimulationReport]
    cache_hits: int
    cache_misses: int
    #: Coordinator directives applied during a fleet run.
    rebalances: int = 0


def _config(seed: int, policy: str, trace: str, **overrides) -> ExperimentConfig:
    return build_experiment(policy, trace, seed=seed, scale=SCALE, **overrides)


def input_seed(seed: int) -> int:
    """The first seed derived from ``seed`` whose query trace holds
    ``NOMINAL_QUERIES`` to within ``VOLUME_TOLERANCE``.

    The program's own workload pipeline builds each candidate trace;
    its query count is that of every workload.  Runs outside any timed
    region, and leaves the workload cache empty.
    """
    cache = default_cache()
    try:
        for attempt in itertools.count():
            candidate = derive_seed(seed, f"perfbench-input-{attempt}")
            queries = get_workload(_config(candidate, "unit", "med-unif"))[0].queries
            cache.clear()
            if abs(len(queries) / NOMINAL_QUERIES - 1.0) <= VOLUME_TOLERANCE:
                return candidate
    finally:
        cache.clear()


def _elapsed_bound(config: ExperimentConfig) -> Tuple[int, float]:
    """Query count of the config's trace and the simulated end time
    (horizon plus the runner's own drain window)."""
    query_trace = get_workload(config)[0]
    horizon = config.scale.horizon
    return len(query_trace.queries), horizon + runner._drain_window(query_trace, horizon)


def check_report(
    label: str, report: SimulationReport, n_queries: int, elapsed: float
) -> List[str]:
    """Whole-run invariants every report must satisfy."""
    errors: List[str] = []
    resolved = sum(report.outcome_counts.values())
    if resolved != report.queries_submitted or resolved != n_queries:
        errors.append(
            f"{label}: outcomes sum to {resolved}, submitted "
            f"{report.queries_submitted}, trace has {n_queries}"
        )
    busy = report.busy_by_class
    for cls, seconds in busy.items():
        if not 0.0 <= seconds <= elapsed:
            errors.append(f"{label}: {cls} busy {seconds!r} s outside [0, {elapsed!r}]")
    if sum(busy.values()) > elapsed:
        errors.append(f"{label}: total busy {sum(busy.values())!r} s > elapsed {elapsed!r}")
    return errors


def _timed_cells(configs: Sequence[Tuple[str, ExperimentConfig]]) -> PassResult:
    cache = default_cache()
    cache.clear()
    started = time.perf_counter()
    reports = {key: runner.run_experiment(config) for key, config in configs}
    wall = time.perf_counter() - started
    return _cells_result(wall, reports, cache.hits, cache.misses)


def _cells_result(
    wall: float, reports: Dict[str, SimulationReport], hits: int, misses: int
) -> PassResult:
    setup = work = 0.0
    for report in reports.values():
        phases = report.phase_seconds or {}
        setup += phases["workload"] + phases["setup"]
        work += phases["simulate"] + phases["finalize"]
    return PassResult(
        wall_s=wall,
        setup_s=setup,
        work_s=work,
        queries=sum(r.queries_submitted for r in reports.values()),
        events=sum(r.events_fired for r in reports.values()),
        update_arrivals=sum(r.update_arrivals for r in reports.values()),
        reports=reports,
        shard_reports=[],
        cache_hits=hits,
        cache_misses=misses,
    )


class Workload:
    """A named set of cells, run as one pass."""

    name = ""

    def cells(self, seed: int) -> List[Tuple[str, ExperimentConfig]]:
        raise NotImplementedError

    def prepare(self, seed: int) -> Tuple[int, List[str]]:
        """Once-per-run reference work: (cells run, errors)."""
        return 0, []

    def run_pass(self, seed: int) -> PassResult:
        return _timed_cells(self.cells(seed))

    def check(self, seed: int, result: PassResult) -> Dict[str, List[str]]:
        """Correctness gates of one pass: failed checks per cell."""
        errors: Dict[str, List[str]] = {}
        for key, config in self.cells(seed):
            n_queries, elapsed = _elapsed_bound(config)
            errors[key] = check_report(key, result.reports[key], n_queries, elapsed)
        return errors


class PaperUnit(Workload):
    name = "paper_unit"

    def cells(self, seed):
        return [
            ("unit/med-unif", _config(seed, "unit", "med-unif")),
            ("unit/high-unif", _config(seed, "unit", "high-unif")),
        ]


class PaperWrites(Workload):
    name = "paper_writes"

    def _base(self, seed: int) -> ExperimentConfig:
        return _config(seed, "imu", "med-unif", items_per_query=3)

    def cells(self, seed):
        base = self._base(seed)
        return [
            (f"{policy}/med-unif", dataclasses.replace(base, policy=policy))
            for policy in ("imu", "odu")
        ]

    def run_pass(self, seed):
        cache = default_cache()
        cache.clear()
        started = time.perf_counter()
        grid = sweep.run_grid(
            ["imu", "odu"],
            ["med-unif"],
            [PenaltyProfile.naive()],
            SCALES[SCALE],
            seed=seed,
            base=self._base(seed),
        )
        wall = time.perf_counter() - started
        reports = {f"{policy}/{trace}": report for (policy, trace, _), report in grid.items()}
        return _cells_result(wall, reports, cache.hits, cache.misses)


class ObservedUnit(Workload):
    name = "observed_unit"

    def cells(self, seed):
        obs = ObsConfig(enabled=True, metrics=True, spans=True, capacity=OBS_CAPACITY)
        return [("unit/med-unif", _config(seed, "unit", "med-unif", obs=obs))]

    def prepare(self, seed):
        # The bypass: the same cell with observability off.  Tracing
        # must not change outcomes, so the digests must match.
        reference = runner.run_experiment(_config(seed, "unit", "med-unif"))
        self._reference_digest = stable_report_digest(reference)
        n_queries, elapsed = _elapsed_bound(reference.config)
        return 1, check_report("unit/med-unif obs-off", reference, n_queries, elapsed)

    def check(self, seed, result):
        checked = super().check(seed, result)
        errors = checked["unit/med-unif"]
        report = result.reports["unit/med-unif"]
        if stable_report_digest(report) != self._reference_digest:
            errors.append("observed cell digest differs from the obs-off cell")
        summary = report.obs_summary or {}
        spans = report.obs_spans or {}
        span_summary = spans.get("summary", {})
        if summary.get("dropped", 1) != 0 or span_summary.get("dropped", 1) != 0:
            errors.append(f"trace truncated: {summary.get('dropped')} events dropped")
        if span_summary.get("partial", True):
            errors.append("span set is partial")
        if span_summary.get("spans") != report.queries_submitted:
            errors.append(
                f"{span_summary.get('spans')} spans for {report.queries_submitted} queries"
            )
        ledger = spans.get("ledger", {})
        if (
            ledger.get("components") != report.components
            or ledger.get("usm") != report.usm
            or ledger.get("total") != report.queries_submitted
        ):
            errors.append("USM-loss ledger does not reconcile with the report")
        return checked


class FleetReplicated(Workload):
    name = "fleet_replicated"

    def _fleet(self, seed: int) -> "fleet_runner.FleetConfig":
        return fleet_runner.FleetConfig(
            base=_config(seed, "unit", "med-unif"),
            n_shards=4,
            replication=2,
            router_policy="freshness",
            coordinate=True,
            workers=0,
        )

    def cells(self, seed):
        return [("fleet/unit/med-unif", self._fleet(seed).base)]

    def run_pass(self, seed):
        cache = default_cache()
        cache.clear()
        setup = [0.0]

        def timed(fn):
            def call(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    setup[0] += time.perf_counter() - started

            return call

        # run_fleet's own set-up calls, timed where it makes them.
        originals = {name: getattr(fleet_runner, name) for name in FLEET_SETUP_CALLS}
        for name, fn in originals.items():
            setattr(fleet_runner, name, timed(fn))
        try:
            started = time.perf_counter()
            fleet = fleet_runner.run_fleet(self._fleet(seed))
            wall = time.perf_counter() - started
        finally:
            for name, fn in originals.items():
                setattr(fleet_runner, name, fn)
        merged = fleet.merged
        return PassResult(
            wall_s=wall,
            setup_s=setup[0],
            # Everything after set-up: epochs, coordination, the shards'
            # finish and the merge.
            work_s=wall - setup[0],
            queries=merged.queries_submitted,
            events=merged.events_fired,
            update_arrivals=merged.update_arrivals,
            reports={"fleet/unit/med-unif": merged},
            shard_reports=list(fleet.shard_reports),
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            rebalances=len(fleet.rebalances),
        )

    def check(self, seed, result):
        (key, base), = self.cells(seed)
        n_queries, elapsed = _elapsed_bound(base)
        merged = result.reports[key]
        # Each shard drains to its own last deadline, never past the
        # fleet-wide one, so the global bound holds per shard.
        errors = [
            f"shard {index}: {error}"
            for index, shard in enumerate(result.shard_reports)
            for error in check_report(
                f"shard {index}", shard, shard.queries_submitted, elapsed
            )
        ]
        shard_total = sum(r.queries_submitted for r in result.shard_reports)
        if len(result.shard_reports) != 4 or shard_total != merged.queries_submitted:
            errors.append(
                f"shard query counts sum to {shard_total}, merged report has "
                f"{merged.queries_submitted}"
            )
        resolved = sum(merged.outcome_counts.values())
        if resolved != n_queries or merged.queries_submitted != n_queries:
            errors.append(f"merged outcomes {resolved} for a trace of {n_queries}")
        return {key: errors}


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (PaperUnit, PaperWrites, ObservedUnit, FleetReplicated)
}


def digests(result: PassResult) -> Dict[str, str]:
    return {key: stable_report_digest(report) for key, report in result.reports.items()}


def make(name: str) -> Workload:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}") from None

