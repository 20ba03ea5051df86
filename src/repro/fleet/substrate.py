"""One shard = one complete single-server substrate.

A :class:`ShardSpec` is the picklable, self-contained description of a
shard's run: its (remapped) query and update traces, its config, and
its fault scenario.  A :class:`ShardRun` *is* a
:class:`repro.experiments.runner.Substrate` built from that spec, so it
assembles, steps, drains and finalizes exactly as
:func:`repro.experiments.runner.run_experiment` does; it adds only the
epoch summary and the coordinator directives a fleet controller uses
at epoch boundaries.  A 1-shard spec built from an unmodified config
reproduces the single-server run byte for byte.

Item ids are remapped: a shard hosts a subset of the global item space,
and :class:`~repro.db.items.ItemTable` requires dense ids ``0..m-1``,
so each shard carries its sorted global id list (``global_items``) and
every trace it receives is rewritten into local coordinates.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.admission import FLEX_MAX, FLEX_MIN
from repro.core.unit import UnitPolicy
from repro.db.transactions import Outcome
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Substrate
from repro.fleet.controller import Directive, EpochSummary
from repro.obs.spans import build_spans  # noqa: F401  (perfbench patches this name)
from repro.sim.rng import derive_seed
from repro.workload.queries import QuerySpec, QueryTrace
from repro.workload.updates import ItemUpdateSpec, UpdateTrace

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.fleet.partition import Partition
    from repro.fleet.router import RoutingPlan


@dataclasses.dataclass
class ShardSpec:
    """Everything one shard process needs (picklable)."""

    shard_id: int
    n_shards: int
    config: ExperimentConfig
    global_items: Tuple[int, ...]
    query_trace: QueryTrace
    update_trace: UpdateTrace


class ShardRun(Substrate):
    """A fleet shard: the spec's substrate, steppable in epoch slices."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        super().__init__(
            spec.config,
            spec.query_trace,
            spec.update_trace,
            shard=spec.shard_id if spec.n_shards > 1 else None,
        )
        self._epoch_counts: Dict[Outcome, int] = {o: 0 for o in Outcome}

    def step(self, until: float, directive: Optional[Directive]) -> EpochSummary:
        """One epoch: apply ``directive`` (if any), run to ``until`` and
        summarize.  Serial and process-parallel fleets both step here."""
        if directive is not None:
            self.apply_directive(directive)
        self.run_to(until)
        return self.epoch_summary()

    def epoch_summary(self) -> EpochSummary:
        """Outcome deltas since the previous summary, plus knob state."""
        counts = self.server.outcome_counts
        deltas = {
            o.value: counts[o] - self._epoch_counts[o] for o in Outcome
        }
        self._epoch_counts = dict(counts)
        c_flex: Optional[float] = None
        if isinstance(self.policy, UnitPolicy) and self.policy.admission is not None:
            c_flex = self.policy.admission.c_flex
        return EpochSummary(
            shard_id=self.spec.shard_id, time=self.sim.now, deltas=deltas, c_flex=c_flex
        )

    def apply_directive(self, directive: Directive) -> None:
        """Apply a coordinator directive.

        Only the UNIT policy exposes the knobs; baseline policies
        silently ignore directives (the coordinator still observes
        their shards, it just cannot steer them).
        """
        policy = self.policy
        if not isinstance(policy, UnitPolicy):
            return
        if directive.flex_factor != 1.0 and policy.admission is not None:
            admission = policy.admission
            admission.c_flex = min(
                FLEX_MAX, max(FLEX_MIN, admission.c_flex * directive.flex_factor)
            )
        if directive.modulate == "degrade" and policy.modulator is not None:
            policy.modulator.degrade(1)
        elif directive.modulate == "upgrade" and policy.modulator is not None:
            policy.modulator.upgrade_all()


def build_shard_specs(
    base: ExperimentConfig,
    partition: "Partition",
    plan: "RoutingPlan",
    query_trace: QueryTrace,
    update_trace: UpdateTrace,
    replica_lag: float,
) -> List[ShardSpec]:
    """Split the global workload into one self-contained spec per shard.

    The 1-shard case is the identity: the spec carries the base config,
    the base seed, and the untouched traces, so its run is
    byte-identical to the single-server runner.  With N > 1 each shard
    gets a derived seed (disjoint policy streams per shard), a scale
    whose ``n_items`` matches its hosted subset, and traces rewritten
    into local item coordinates; replica items receive a copy of the
    primary's update stream delayed by ``replica_lag`` (replication is
    real CPU work, not bookkeeping).
    """
    n_shards = partition.n_shards
    if n_shards == 1:
        return [
            ShardSpec(
                shard_id=0,
                n_shards=1,
                config=base,
                global_items=tuple(range(partition.n_items)),
                query_trace=query_trace,
                update_trace=update_trace,
            )
        ]

    specs: List[ShardSpec] = []
    update_by_id = {item.item_id: item for item in update_trace.items}
    for shard in range(n_shards):
        extra = plan.extra_hosts.get(shard, [])
        hosted = sorted(set(partition.hosted_items(shard)).union(extra))
        local_of = {g: local for local, g in enumerate(hosted)}

        shard_updates: List[ItemUpdateSpec] = []
        for g in hosted:
            item = update_by_id[g]
            phase = item.phase
            if partition.primary[g] != shard:
                # Replica stream: same counts and period, lag-delayed.
                phase += replica_lag
            shard_updates.append(
                ItemUpdateSpec(
                    item_id=local_of[g],
                    count=item.count,
                    period=item.period,
                    phase=phase,
                    exec_time=item.exec_time,
                )
            )
        shard_update_trace = UpdateTrace(
            name=update_trace.name,
            horizon=update_trace.horizon,
            items=shard_updates,
            target_utilization=update_trace.target_utilization,
        )

        shard_queries: List[QuerySpec] = [
            QuerySpec(
                arrival=query.arrival,
                items=tuple(local_of[item] for item in query.items),
                exec_time=query.exec_time,
                relative_deadline=query.relative_deadline,
                freshness_req=query.freshness_req,
            )
            for query, assigned in zip(query_trace.queries, plan.assignments)
            if assigned == shard
        ]
        shard_query_trace = QueryTrace(
            name=query_trace.name,
            horizon=query_trace.horizon,
            n_items=len(hosted),
            queries=shard_queries,
        )

        config = dataclasses.replace(
            base,
            seed=derive_seed(base.seed, f"fleet-shard-{shard}"),
            scale=dataclasses.replace(base.scale, n_items=len(hosted)),
        )
        specs.append(
            ShardSpec(
                shard_id=shard,
                n_shards=n_shards,
                config=config,
                global_items=tuple(hosted),
                query_trace=shard_query_trace,
                update_trace=shard_update_trace,
            )
        )
    return specs
