"""Merge per-shard reports into one fleet report.

The merge is *exact*: outcome counts are integers, so the fleet USM is
recomputed from the summed counts through the same
:class:`~repro.core.usm.UsmAccumulator` the single-server path uses
(integer tallies, one correctly-rounded division at the end); float
totals (CPU busy time) are summed in the integer fixed-point mirror
(:mod:`repro.core.fixedpoint`) so the merged value is the correctly
rounded true sum regardless of shard order.  Per-item arrays are
mapped from each shard's local ids back to global ids; replicated
items accumulate executed-update counts from every hosting shard
(replication is real CPU work and is reported as such).

For a 1-shard fleet the merged report is field-for-field the shard's
own report, so ``stable_report_digest`` of the merge equals the
single-server digest — the equivalence gate in the fleet test suite.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.core.usm import UsmAccumulator
from repro.db.transactions import Outcome
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import stable_report_digest
from repro.experiments.runner import SimulationReport
from repro.fleet.substrate import ShardSpec


def _sum_exact(values: Sequence[float]) -> float:
    """Correctly-rounded sum via the fixed-point mirror."""
    return float_from_fixed(sum(fixed_from_float(v) for v in values))


def merge_reports(
    base: ExperimentConfig,
    specs: Sequence[ShardSpec],
    reports: Sequence[SimulationReport],
    wall_seconds: float,
) -> SimulationReport:
    """Fold per-shard reports into one fleet-level report.

    The merged report reuses :class:`SimulationReport` so every
    existing renderer (tables, dashboards, digests) works on fleets
    unchanged.  ``config`` is the *base* config: the fleet presents as
    one logical server over the global item space.  ``wall_seconds``
    is the whole fleet run's wall time, which no shard report sees.
    """
    if not reports:
        raise ValueError("cannot merge zero reports")
    n_items = base.scale.n_items

    counts: Dict[Outcome, int] = {o: 0 for o in Outcome}
    for report in reports:
        for outcome, n in report.outcome_counts.items():
            counts[outcome] += n

    access = [0] * n_items
    original = [0] * n_items
    executed = [0] * n_items
    for spec, report in zip(specs, reports):
        for local, g in enumerate(spec.global_items):
            access[g] += report.query_access_counts[local]
            original[g] += report.update_counts_original[local]
            executed[g] += report.update_counts_executed[local]

    busy: Dict[str, float] = {}
    for key in reports[0].busy_by_class:
        busy[key] = _sum_exact([r.busy_by_class[key] for r in reports])

    accumulator = UsmAccumulator.from_counts(base.profile, counts)
    records = None
    if all(r.records is not None for r in reports):
        records = [record for r in reports for record in r.records or []]

    return SimulationReport(
        config=base,
        policy_name=reports[0].policy_name,
        outcome_counts=counts,
        queries_submitted=sum(r.queries_submitted for r in reports),
        usm=accumulator.average_usm(),
        total_usm=accumulator.total_usm(),
        ratios=accumulator.ratios(),
        components=accumulator.components(),
        update_arrivals=sum(r.update_arrivals for r in reports),
        updates_executed=sum(r.updates_executed for r in reports),
        updates_dropped=sum(r.updates_dropped for r in reports),
        query_access_counts=access,
        update_counts_original=original,
        update_counts_executed=executed,
        busy_by_class=busy,
        wall_seconds=wall_seconds,
        events_fired=sum(r.events_fired for r in reports),
        records=records,
    )


@dataclasses.dataclass
class FleetReport:
    """One fleet run: the merged view plus per-shard detail."""

    n_shards: int
    replication: int
    router_policy: str
    merged: SimulationReport
    shard_reports: List[SimulationReport]
    routing: Dict[str, object]
    rebalances: List[Dict[str, object]]
    epochs: int
    obs_summary: Optional[Dict[str, object]] = None

    @property
    def digest(self) -> str:
        """Fleet digest = digest of the merged report (the quantity the
        1-shard equivalence and repeat-determinism gates compare)."""
        return stable_report_digest(self.merged)

    def shard_digests(self) -> List[str]:
        return [stable_report_digest(report) for report in self.shard_reports]

    def summary(self) -> str:
        lines = [
            f"fleet: {self.n_shards} shard(s), replication={self.replication}, "
            f"router={self.router_policy}, "
            f"epochs={self.epochs}, rebalances={len(self.rebalances)}",
            self.merged.summary(),
        ]
        for report in self.shard_reports:
            ratios = report.ratios
            lines.append(
                f"  shard queries={report.queries_submitted} "
                f"usm={report.usm:+.4f} "
                f"dmf={ratios[Outcome.DEADLINE_MISS]:.3f} "
                f"dsf={ratios[Outcome.DATA_STALE]:.3f}"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe payload for artifacts (reporting only — the
        byte-identity contract lives in the merged report's digest)."""
        merged = self.merged
        return {
            "n_shards": self.n_shards,
            "replication": self.replication,
            "router_policy": self.router_policy,
            "epochs": self.epochs,
            "digest": self.digest,
            "shard_digests": self.shard_digests(),
            "routing": self.routing,
            "rebalances": self.rebalances,
            "merged": {
                "policy": merged.policy_name,
                "queries": merged.queries_submitted,
                "usm": merged.usm,
                "total_usm": merged.total_usm,
                "ratios": {o.value: r for o, r in merged.ratios.items()},
                "updates_executed": merged.updates_executed,
                "updates_dropped": merged.updates_dropped,
                "busy": dict(merged.busy_by_class),
                "events_fired": merged.events_fired,
            },
            "shards": [
                {
                    "queries": report.queries_submitted,
                    "usm": report.usm,
                    "ratios": {o.value: r for o, r in report.ratios.items()},
                    "updates_executed": report.updates_executed,
                    "busy": dict(report.busy_by_class),
                }
                for report in self.shard_reports
            ],
        }
