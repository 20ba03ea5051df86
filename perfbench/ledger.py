"""Fold one traced pass into the per-layer metrics of ``BENCHMARK.json``.

Counts are exact call or outcome counts and repeat exactly for a seed.
``*_s`` figures are seconds of span self time (a layer's spans minus
the child spans they cover) or, where the name says so, inclusive
time of one call.  ``sim.events_per_s`` and the ``experiments.runner``
phase times come from the untraced pass, so tracing cost never enters
them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from tracing import Tracer
from workloads import PassResult


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _epoch_steps(tracer: Tracer) -> List[np.ndarray]:
    """Durations of the ``run_to`` spans called straight from each
    ``run_fleet`` span, in call order (the drain inside ``finish`` is
    not an epoch step)."""
    names = tracer.names
    ids = np.frombuffer(tracer.name_id, dtype=np.int32)
    parents = np.frombuffer(tracer.parent, dtype=np.int32)
    durations = tracer.durations()
    run_to = ids == names.index("fleet:ShardRun.run_to")
    return [
        durations[run_to & (parents == root)]
        for root in np.nonzero(ids == names.index("fleet:runner.run_fleet"))[0]
    ]


def _epoch_imbalance(steps: List[np.ndarray], n_shards: int) -> float:
    """Median over epochs of max ÷ mean shard ``run_to`` time; the
    serial loop steps the shards in order, so each run of ``n_shards``
    consecutive steps is one epoch."""
    ratios = []
    for fleet_steps in steps:
        epochs = fleet_steps[: len(fleet_steps) // n_shards * n_shards]
        epochs = epochs.reshape(-1, n_shards)
        ratios.extend(epochs.max(axis=1) / epochs.mean(axis=1))
    return float(np.median(ratios)) if ratios else 0.0


def layer_metrics(
    tracer: Tracer, traced: PassResult, untraced: PassResult
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``."""
    calls = tracer.call_counts()
    own = tracer.self_by_name()
    inclusive = tracer.inclusive_by_name()
    layer_self = tracer.self_by_layer()
    counters = tracer.counters

    def count(*names: str) -> int:
        return sum(calls[name] for name in names)

    def seconds(table: Dict[str, float], *names: str) -> float:
        return sum(table[name] for name in names)

    inline = count("sim:Simulator.fire_inline")
    requests = count("db.locks:LockManager.request")
    granted = counters["db.locks.granted"]
    decisions = count("core.admission:AdmissionController.decide")
    draws = count("core.um:LotteryScheduler.sample")
    victims = counters["core.um.victims"]
    reports = list(traced.reports.values()) + traced.shard_reports
    obs_summaries = [r.obs_summary for r in reports if r.obs_summary is not None]
    phases = [r.phase_seconds for r in untraced.reports.values() if r.phase_seconds]
    epoch_steps = _epoch_steps(tracer)
    return {
        "workload.gen_s": seconds(inclusive, "workload:runner.build_workload"),
        "workload.cache_hits": traced.cache_hits,
        "workload.cache_misses": traced.cache_misses,
        "sim.events": traced.events,
        "sim.events_per_s": _ratio(untraced.events, untraced.work_s),
        "sim.self_s": layer_self["sim"],
        "sim.timer_ops": count(
            "sim:Simulator.schedule_token", "sim:Simulator.cancel_token"
        ),
        "sim.inline_fires": inline,
        "sim.update_arrivals": traced.update_arrivals,
        "sim.inline_share": _ratio(inline, traced.update_arrivals),
        "db.server.submit_calls": count("db.server:Server.submit_query"),
        "db.server.submit_self_s": own["db.server:Server.submit_query"],
        "db.server.update_run_calls": count("db.server:Server.source_update_run"),
        "db.server.update_run_self_s": own["db.server:Server.source_update_run"],
        "db.server.self_s": layer_self["db.server"],
        "db.ready_queue.ops": count(
            "db.ready_queue:ReadyQueue.push",
            "db.ready_queue:ReadyQueue.pop",
            "db.ready_queue:ReadyQueue.remove",
        ),
        "db.ready_queue.backlog_reads": count(
            "db.ready_queue:ReadyQueue.backlog_ahead_of",
            "db.ready_queue:ReadyQueue.query_backlog_ahead_of",
            "db.ready_queue:ReadyQueue.query_backlog_before",
            "db.ready_queue:ReadyQueue.query_backlog",
            "db.ready_queue:ReadyQueue.update_backlog",
        ),
        "db.ready_queue.self_s": layer_self["db.ready_queue"],
        "db.locks.requests": requests,
        "db.locks.conflicts": requests - granted,
        "db.locks.restarts": counters["db.locks.victims"],
        "db.locks.grant_ratio": _ratio(granted, requests),
        "db.locks.self_s": layer_self["db.locks"],
        "core.admission.decisions": decisions,
        "core.admission.admit_ratio": _ratio(
            counters["core.admission.admitted"], decisions
        ),
        "core.admission.self_s": layer_self["core.admission"],
        "core.um.degrades": count("core.um:UpdateFrequencyModulator.degrade"),
        "core.um.upgrades": count("core.um:UpdateFrequencyModulator.upgrade_all"),
        "core.um.victims": victims,
        "core.um.lottery_draws": draws,
        "core.um.draws_per_victim": _ratio(draws, victims),
        "core.um.rebuilds": count("core.um:LotteryScheduler.rebuild"),
        "core.um.self_s": layer_self["core.um"],
        "core.lbc.allocations": count("core.lbc:LoadBalancingController.allocate"),
        "core.lbc.self_s": layer_self["core.lbc"],
        "obs.trace_events": sum(int(s["recorded"]) for s in obs_summaries),
        "obs.dropped": sum(int(s["dropped"]) for s in obs_summaries),
        "obs.emit_self_s": sum(
            value for name, value in own.items() if name.startswith("obs:TraceRecorder.")
        ),
        "obs.span_build_s": seconds(
            inclusive, "obs:runner.build_spans", "obs:substrate.build_spans"
        ),
        "obs.attrib_s": seconds(inclusive, "obs:attrib.attrib_report"),
        "experiments.runner.setup_s": sum(p["setup"] for p in phases),
        "experiments.runner.finalize_s": sum(p["finalize"] for p in phases),
        "experiments.sweep.cells": counters["experiments.sweep.cells"],
        "fleet.route_s": seconds(inclusive, "fleet:runner.route_queries"),
        "fleet.spec_build_s": seconds(inclusive, "fleet:runner.build_shard_specs"),
        "fleet.epoch_s": float(sum(steps.sum() for steps in epoch_steps)),
        "fleet.epoch_imbalance": _epoch_imbalance(
            epoch_steps, max(1, len(traced.shard_reports))
        ),
        "fleet.coord_s": seconds(inclusive, "fleet:GlobalCoordinator.plan"),
        "fleet.merge_s": seconds(inclusive, "fleet:runner.merge_reports"),
        "fleet.rebalances": traced.rebalances,
        "fleet.forced_routes": counters["fleet.forced_routes"],
        "trace.spans": tracer.span_count(),
    }


def exact_counts(tracer: Tracer) -> Dict[str, int]:
    """Counts that must repeat exactly between two traced passes of a seed."""
    counts = dict(tracer.call_counts())
    counts.update(tracer.counters)
    return counts
