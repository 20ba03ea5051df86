"""Run one configured experiment end to end.

:class:`Substrate` is the single assembly path for a simulated server:
given a config and its query/update traces it builds the recorder,
simulator, item table, policy and :class:`Server`, schedules the
batched arrival feed and the configured faults, steps the run in
slices (:meth:`Substrate.run_to`), and drains it to the horizon plus a
drain window (so every admitted query resolves through its firm
deadline) before packaging a :class:`SimulationReport`
(:meth:`Substrate.finish`).  :func:`run_experiment`, every fleet shard
(:class:`repro.fleet.substrate.ShardRun`) and the ``run`` dossier of
``python -m repro.experiments`` all go through it.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.baselines import ImuPolicy, OduPolicy
from repro.core.elastic import ElasticPolicy
from repro.core.qmf import QmfPolicy
from repro.core.unit import UnitPolicy
from repro.core.usm import UsmAccumulator
from repro.db.items import DataItem, ItemTable
from repro.db.policy_api import ServerPolicy
from repro.db.server import ARRIVAL_EVENT_PRIORITY, Server, ServerConfig
from repro.db.transactions import Outcome, QueryRecord, QueryTransaction
from repro.experiments.config import ExperimentConfig
from repro.faults.driver import FaultDriver
from repro.faults.metrics import degradation_metrics
from repro.obs.config import ObsConfig
from repro.obs.export import (
    FlatTrace,
    write_chrome_trace,
    write_controller_csv,
    write_trace_jsonl,
)
from repro.obs.attrib import AttribAccumulator
from repro.obs.spans import build_spans  # noqa: F401  (perfbench patches this name)
from repro.obs.spans import SpanBuildResult, SpanFold, write_spans_jsonl
from repro.obs.trace import Recorder, TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.cache import get_workload
from repro.workload.cello import CelloConfig, generate_cello_trace
from repro.workload.perturb import perturb_query_trace, perturb_update_trace
from repro.workload.queries import QueryTrace, build_query_trace
from repro.workload.updates import (
    STANDARD_UPDATE_TRACES,
    UpdateTrace,
    build_update_trace,
)

#: Flash crowds of every query trace, the calibration DESIGN.md
#: documents ("unpredictable access patterns ... flash crowds", paper
#: Section 1): the arrival rate quadruples in bursts of ~20 s that
#: come every ~2 min.
_BURST_FACTOR = 4.0
_NORMAL_DWELL = 120.0
_BURST_DWELL = 20.0


@dataclasses.dataclass
class SimulationReport:
    """Everything the tables/figures need from one run."""

    config: ExperimentConfig
    policy_name: str
    outcome_counts: Dict[Outcome, int]
    queries_submitted: int
    usm: float
    total_usm: float
    ratios: Dict[Outcome, float]
    components: Dict[str, float]
    update_arrivals: int
    updates_executed: int
    updates_dropped: int
    query_access_counts: List[int]
    update_counts_original: List[int]
    update_counts_executed: List[int]
    busy_by_class: Dict[str, float]
    wall_seconds: float
    events_fired: int
    records: Optional[List[QueryRecord]] = None
    # Degradation metrics (None unless a fault scenario was configured
    # AND ``keep_records`` was set — the metrics need per-query finish
    # times).  Reporting-only: excluded from the byte-identity contract
    # the same way the obs fields below are.
    degradation: Optional[Dict[str, object]] = None
    # Observability (all None when ``config.obs`` is unset/disabled —
    # the byte-identity contract of tests/test_determinism_regression
    # deliberately excludes every field below plus wall timings).
    phase_seconds: Optional[Dict[str, float]] = None
    obs_summary: Optional[Dict[str, object]] = None
    obs_events: Optional[List[Dict[str, object]]] = None
    obs_artifacts: Optional[Dict[str, str]] = None
    # Query-lifecycle span attribution (repro.obs.spans/attrib): the
    # span-set summary plus wait breakdown, latency/slack percentiles,
    # and the USM-loss ledger.  None unless ``config.obs.spans``.
    obs_spans: Optional[Dict[str, object]] = None

    @property
    def success_ratio(self) -> float:
        if not self.queries_submitted:
            return 0.0
        return self.outcome_counts[Outcome.SUCCESS] / self.queries_submitted

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"policy={self.policy_name} trace={self.config.update_trace} "
            f"profile={self.config.profile.describe()}",
            f"  queries={self.queries_submitted}  USM={self.usm:+.4f}  "
            f"success={self.ratios[Outcome.SUCCESS]:.3f}  "
            f"reject={self.ratios[Outcome.REJECTED]:.3f}  "
            f"dmf={self.ratios[Outcome.DEADLINE_MISS]:.3f}  "
            f"dsf={self.ratios[Outcome.DATA_STALE]:.3f}",
            f"  updates: arrived={self.update_arrivals} "
            f"executed={self.updates_executed} dropped={self.updates_dropped}",
            f"  cpu busy: query={self.busy_by_class['query']:.1f}s "
            f"update={self.busy_by_class['update']:.1f}s "
            f"(horizon {self.config.scale.horizon:.0f}s)",
        ]
        return "\n".join(lines)


def make_policy(
    config: ExperimentConfig,
    streams: RandomStreams,
    recorder: Optional[Recorder] = None,
) -> ServerPolicy:
    """Instantiate the configured policy.

    ``recorder`` reaches only the UNIT policy (the control modules are
    the instrumented ones); baseline policies are still traced at the
    server and lock-manager level.
    """
    if config.policy == "unit":
        return UnitPolicy(
            config.unit_config(), streams.stream("unit-lottery"), recorder=recorder
        )
    if config.policy == "imu":
        return ImuPolicy()
    if config.policy == "odu":
        return OduPolicy()
    if config.policy == "qmf":
        return QmfPolicy()
    if config.policy == "elastic":
        return ElasticPolicy(config.elastic_config())
    raise ValueError(f"unknown policy {config.policy!r}")


def build_query_workload(config: ExperimentConfig, streams: RandomStreams) -> QueryTrace:
    """Generate the base query trace for a config, before any fault.

    Reads exactly the fields :meth:`ExperimentConfig.query_key` covers
    and draws only from the ``cello-*`` and ``query-*`` substreams.
    """
    scale = config.scale
    cello = CelloConfig(
        horizon=scale.horizon,
        n_items=scale.n_items,
        query_utilization=scale.query_utilization,
        mean_service=scale.mean_query_service,
        zipf_skew=config.zipf_skew,
        burst_factor=_BURST_FACTOR,
        normal_dwell=_NORMAL_DWELL,
        burst_dwell=_BURST_DWELL,
    )
    records = generate_cello_trace(cello, streams)
    return build_query_trace(
        records,
        n_items=scale.n_items,
        streams=streams,
        horizon=scale.horizon,
        items_per_query=config.items_per_query,
    )


def build_workload(
    config: ExperimentConfig,
    streams: RandomStreams,
    query_source: Callable[[ExperimentConfig, RandomStreams], QueryTrace] = build_query_workload,
) -> Tuple[QueryTrace, UpdateTrace]:
    """Generate the query trace and the update trace for a config.

    ``query_source`` supplies the base query trace; the workload cache
    passes its query-trace tier, so configs that differ only in update
    shape share one base.  The update trace and the fault perturbation
    draw only from ``update-<name>-*`` and ``fault-*`` substreams, which
    the base never touches, so where the base came from changes no draw.
    """
    query_trace = query_source(config, streams)
    scale = config.scale
    update_trace = build_update_trace(
        STANDARD_UPDATE_TRACES[config.update_trace],
        query_trace.access_counts(),
        horizon=scale.horizon,
        streams=streams,
        mean_exec=scale.mean_update_exec,
    )
    # Fault scenarios perturb *after* base generation: the update trace
    # is correlated against the unperturbed access histogram, and the
    # fault-* substreams are disjoint from every stream drawn above, so
    # an unconfigured run is byte-identical to pre-fault builds.
    faults = config.faults
    if faults is not None and faults.shapes_workload():
        query_trace = perturb_query_trace(query_trace, faults, streams)
        update_trace = perturb_update_trace(update_trace, faults, streams)
    return query_trace, update_trace


def item_table_from_trace(update_trace: UpdateTrace) -> ItemTable:
    """Build the server's item table from an update trace."""
    return ItemTable(
        [
            DataItem(
                item_id=item.item_id,
                ideal_period=item.period,
                update_exec_time=item.exec_time,
            )
            for item in update_trace.items
        ]
    )


def _drain_window(query_trace: QueryTrace, horizon: float) -> float:
    """Time past the horizon needed for every admitted query to resolve
    (the latest firm deadline still pending at the horizon).

    The latest absolute deadline is ``max(arrival + relative_deadline)``
    — not ``horizon + max(relative_deadline)``, which over-extends the
    run whenever the longest-deadline query arrived well before the
    horizon.  Clamped at zero for deadlines that all land inside the
    horizon; the extra second absorbs completions scheduled exactly at
    the last deadline.
    """
    if not query_trace.queries:
        return 1.0
    last_deadline = max(
        query.arrival + query.relative_deadline for query in query_trace.queries
    )
    return max(0.0, last_deadline - horizon) + 1.0


#: Arrival-feed chunk size: heap entries scheduled per pump (an update
#: run counts as one entry however many arrivals it carries).
_ARRIVAL_CHUNK = 256


def _feed_arrivals(
    sim: Simulator,
    server: Server,
    queries: List[QueryTransaction],
    update_events: List,
) -> None:
    """Schedule trace arrivals in batched chunks of heap entries.

    Eagerly scheduling every arrival puts thousands of far-future events
    in the heap, inflating every push/pop for the whole run.  Instead the
    two (time-sorted) streams are merged — queries before updates on
    exact ties, matching the former scheduling order — into *segments*:
    individual query arrivals, and runs of consecutive update arrivals
    between them.  Each run is a single heap entry however long it is
    (:meth:`Server.source_update_run` applies its arrivals inline); the
    segments are scheduled a chunk at a time through the engine's batch
    heapify, and the last entry of each chunk pumps the next chunk when
    it fires (before its own payload, like the former chained feeder).

    Event *firing* order is unchanged: arrivals are the only events at
    their priority, chunk entries carry stream-ordered sequence numbers,
    and a run yields to any other pending event due mid-run and to the
    active ``Simulator.run`` bounds (``until``, ``max_events``) — so
    runs are byte-identical (``events_fired`` included) to the
    one-event-per-arrival scheme, however the run is sliced.
    """
    # Pre-merge the streams into segments.  A run collects updates
    # strictly before the next query arrival: an update tying a query's
    # arrival time sorts after it, matching the former per-event order.
    segments: List[object] = []
    qi = 0
    ui = 0
    n_queries = len(queries)
    n_updates = len(update_events)
    while qi < n_queries or ui < n_updates:
        if qi < n_queries and (
            ui >= n_updates or queries[qi].arrival <= update_events[ui][0]
        ):
            segments.append(queries[qi])
            qi += 1
            continue
        start = ui
        if qi < n_queries:
            bound = queries[qi].arrival
            while ui < n_updates and update_events[ui][0] < bound:
                ui += 1
        else:
            ui = n_updates
        segments.append(update_events[start:ui])

    submit = server.submit_query
    run_entry = server.source_update_run
    schedule_batch = sim.schedule_batch
    n_segments = len(segments)
    position = 0

    def submit_and_pump(txn: QueryTransaction) -> None:
        pump()  # chain first: the next chunk is scheduled, not fired
        submit(txn)

    def pump() -> None:
        nonlocal position
        if position >= n_segments:
            return
        end = min(position + _ARRIVAL_CHUNK, n_segments)
        last = end - 1
        batch = []
        for index in range(position, end):
            segment = segments[index]
            if type(segment) is list:  # an update run
                callback = run_entry
                at = segment[0][0]
                arg: object = (segment, 0, pump if index == last else None)
            else:
                callback = submit_and_pump if index == last else submit
                at = segment.arrival  # type: ignore[attr-defined]
                arg = segment
            batch.append((at, ARRIVAL_EVENT_PRIORITY, callback, arg))
        position = end
        schedule_batch(batch)

    pump()


def _export_artifacts(
    recorder: TraceRecorder,
    obs_config: ObsConfig,
    config: ExperimentConfig,
    span_result: Optional["SpanBuildResult"] = None,
) -> Dict[str, str]:
    """Write the configured trace artifacts for one cell.

    Paths are derived per cell (label + seed) so parallel sweep workers
    never collide.  Returns ``{artifact_kind: written_path}``.
    """
    paths = obs_config.export_paths(config.label(), config.seed)
    if not paths:
        return {}
    flat = FlatTrace(recorder)
    write_trace_jsonl(flat, paths["trace_jsonl"])
    write_chrome_trace(flat, paths["chrome_json"])
    write_controller_csv(flat, paths["controller_csv"])
    kinds = ["trace_jsonl", "chrome_json", "controller_csv"]
    if span_result is not None:
        write_spans_jsonl(span_result, paths["spans_jsonl"])
        kinds.append("spans_jsonl")
    return {kind: str(paths[kind]) for kind in kinds}


class Substrate:
    """One assembled single-server substrate: the only assembly path.

    The constructor builds the recorder, simulator, item table, policy,
    and :class:`Server` (with the configured freshness metric),
    allocates query transaction ids eagerly in trace order (ids are EDF
    tie-breakers, so allocation order is part of the determinism
    contract), schedules the batched arrival feed, and installs the
    configured faults.  :meth:`run_to` steps the run in slices;
    :meth:`finish` drains it and packages its report.

    ``shard`` labels the query spans of a fleet shard (``None`` for a
    single server).  No wall-clock value is ever stored here: callers
    time phases in locals and hand them to :meth:`finish`.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        query_trace: QueryTrace,
        update_trace: UpdateTrace,
        shard: Optional[int] = None,
    ) -> None:
        self.config = config
        self.query_trace = query_trace
        self.update_trace = update_trace
        self.shard = shard
        # The span fold is a sink of the recorder, so it sees every
        # event however small the ring.  Each span goes into the
        # attribution as it closes; the fold keeps the spans themselves
        # only for the spans JSONL.
        self.recorder: Optional[TraceRecorder] = None
        self.span_fold: Optional[SpanFold] = None
        self.attrib: Optional[AttribAccumulator] = None
        obs = config.obs
        if obs is not None and obs.enabled:
            sinks = []
            if obs.spans:
                self.attrib = AttribAccumulator()
                self.span_fold = SpanFold(
                    keep=obs.out_dir is not None, on_close=self.attrib.add, shard=shard
                )
                sinks.append(self.span_fold.observe)
            has_reader = obs.out_dir is not None or obs.keep_events
            capacity = obs.capacity if has_reader else None
            self.recorder = TraceRecorder(capacity=capacity, sinks=sinks)
        self.sim = Simulator()
        self.items = item_table_from_trace(update_trace)
        self.policy = make_policy(
            config, RandomStreams(config.seed), recorder=self.recorder
        )
        self.server = Server(
            self.sim,
            self.items,
            self.policy,
            ServerConfig(),
            recorder=self.recorder,
        )
        # Only the event *scheduling* is lazy; ids are allocated here.
        query_txns = [
            QueryTransaction(
                txn_id=self.server.next_txn_id(),
                arrival=query_spec.arrival,
                exec_time=query_spec.exec_time,
                items=query_spec.items,
                relative_deadline=query_spec.relative_deadline,
                freshness_req=query_spec.freshness_req,
            )
            for query_spec in query_trace.queries
        ]
        _feed_arrivals(
            self.sim, self.server, query_txns, list(update_trace.arrival_events())
        )
        if config.faults is not None and not config.faults.is_empty:
            FaultDriver(config.faults, self.server, self.recorder).install(self.sim)

    def run_to(self, until: float) -> None:
        """Fire every event with time <= ``until``, inlined update
        arrivals included, and leave the clock at ``until`` (idempotent
        past it)."""
        if until > self.sim.now:
            self.sim.run(until=until)

    def drain_until(self) -> float:
        """The horizon plus the drain window every admitted query needs."""
        horizon = self.config.scale.horizon
        return horizon + _drain_window(self.query_trace, horizon)

    def finish(
        self,
        started: Optional[float] = None,
        phase_seconds: Optional[Dict[str, float]] = None,
    ) -> SimulationReport:
        """Drain the run, check every query resolved, and build the report.

        ``started`` is the ``perf_counter`` reading the report's
        ``wall_seconds`` counts from (0.0 when omitted); a given
        ``phase_seconds`` gains the ``simulate`` and ``finalize`` phases.
        """
        config = self.config
        server = self.server
        query_trace = self.query_trace
        simulate_started = time.perf_counter()
        self.run_to(self.drain_until())
        if phase_seconds is not None:
            phase_seconds["simulate"] = time.perf_counter() - simulate_started

        finalize_started = time.perf_counter()
        unresolved = len(query_trace.queries) - len(server.records)
        if unresolved:
            where = "" if self.shard is None else f"shard {self.shard}: "
            raise RuntimeError(
                f"{where}{unresolved} of {len(query_trace.queries)} queries "
                "never resolved; drain window too short?"
            )

        recorder = self.recorder
        obs_summary: Optional[Dict[str, object]] = None
        obs_events: Optional[List[Dict[str, object]]] = None
        obs_artifacts: Optional[Dict[str, str]] = None
        obs_spans: Optional[Dict[str, object]] = None
        if recorder is not None and config.obs is not None:
            obs_summary = recorder.summary()
            if config.obs.keep_events:
                obs_events = recorder.event_dicts()
            span_result: Optional[SpanBuildResult] = None
            if self.span_fold is not None and self.attrib is not None:
                span_result = self.span_fold.result()
                obs_spans = {"summary": span_result.summary()}
                obs_spans.update(self.attrib.report(config.profile))
            obs_artifacts = _export_artifacts(
                recorder, config.obs, config, span_result=span_result
            )

        degradation: Optional[Dict[str, object]] = None
        if (
            config.faults is not None
            and not config.faults.is_empty
            and config.keep_records
        ):
            degradation = degradation_metrics(
                server.records, config.profile, config.faults, config.scale.horizon
            )

        accumulator = UsmAccumulator.from_counts(config.profile, server.outcome_counts)
        totals = self.items.totals()
        if phase_seconds is not None:
            phase_seconds["finalize"] = time.perf_counter() - finalize_started
        return SimulationReport(
            config=config,
            policy_name=self.policy.describe(),
            outcome_counts=dict(server.outcome_counts),
            queries_submitted=server.queries_submitted,
            usm=accumulator.average_usm(),
            total_usm=accumulator.total_usm(),
            ratios=accumulator.ratios(),
            components=accumulator.components(),
            update_arrivals=totals["arrivals"],
            updates_executed=totals["executed"],
            updates_dropped=totals["dropped"],
            query_access_counts=query_trace.access_counts(),
            update_counts_original=self.update_trace.per_item_counts(),
            update_counts_executed=[item.updates_executed for item in self.items],
            busy_by_class=server.busy_time_by_class(),
            wall_seconds=0.0 if started is None else time.perf_counter() - started,
            events_fired=self.sim.events_fired,
            records=list(server.records) if config.keep_records else None,
            degradation=degradation,
            phase_seconds=phase_seconds,
            obs_summary=obs_summary,
            obs_events=obs_events,
            obs_artifacts=obs_artifacts,
            obs_spans=obs_spans,
        )


def run_experiment(config: ExperimentConfig) -> SimulationReport:
    """Run one simulation and collect its report."""
    started = time.perf_counter()
    # Workload generation is memoized: traces draw only from named
    # substreams disjoint from the policy streams, so a cache hit is
    # byte-identical to regeneration.
    query_trace, update_trace = get_workload(config)
    phase_seconds = {"workload": time.perf_counter() - started}
    setup_started = time.perf_counter()
    substrate = Substrate(config, query_trace, update_trace)
    phase_seconds["setup"] = time.perf_counter() - setup_started
    return substrate.finish(started=started, phase_seconds=phase_seconds)
