"""The fleet router: admit every query to exactly one shard.

Routing happens *before* simulation, in global arrival order — the
router is part of workload preparation, so the per-shard traces (and
therefore the whole fleet trajectory) are a pure function of the
routing plan.  Writes are never routed: an item's update stream always
executes on its primary shard (replicas receive a lag-delayed copy).

Reads are routed by a pluggable policy trading freshness against
latency:

``primary``       always the primary shard of the query's first item
                  (maximally fresh, concentrates load)
``round-robin``   cycle through the candidate host shards
``least-loaded``  the candidate with the smallest routed-work window
``freshness``     candidates whose *estimated* replica freshness meets
                  the query's requirement, then least-loaded among them

A query touching items whose host sets do not intersect is *forced*
onto the primary shard of its first item; the missing items become
forced replicas there (counted in the plan, materialized by the shard
builder).

Replica staleness is estimated from the update schedule alone: a
replica applies each source update ``replica_lag`` seconds after the
primary, so at time t it is missing the updates that arrived in
``(t - replica_lag, t]`` — pending count via binary search over the
item's precomputed arrival times, estimated freshness ``1/(1+pending)``
(the paper's lag metric, Eq. 1).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.freshness import lag_freshness
from repro.fleet.partition import Partition
from repro.obs.trace import Recorder
from repro.workload.queries import QueryTrace
from repro.workload.updates import UpdateTrace

#: Read-routing policies, in documentation order.
ROUTER_POLICIES: Tuple[str, ...] = (
    "primary",
    "round-robin",
    "least-loaded",
    "freshness",
)

#: Width in seconds of the sliding window of routed work that
#: ``least-loaded`` and ``freshness`` compare shards by.
_LOAD_WINDOW = 30.0


@dataclasses.dataclass
class RoutingPlan:
    """Output of :func:`route_queries`.

    Attributes:
        policy: The routing policy that produced the plan.
        assignments: Shard id per query, in trace order.
        forced: Per-query flag — True when the host sets of the query's
            items had an empty intersection and the router fell back to
            the first item's primary shard.
        est_freshness: The router's freshness estimate for each query
            at its chosen shard (1.0 on any primary-complete shard).
        extra_hosts: Forced replicas: shard → sorted global item ids
            the shard must additionally host.
        routed_exec: Total routed query execution time per shard.
        routed_counts: Number of queries per shard.
    """

    policy: str
    assignments: List[int]
    forced: List[bool]
    est_freshness: List[float]
    extra_hosts: Dict[int, List[int]]
    routed_exec: List[float]
    routed_counts: List[int]

    def summary(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "queries": len(self.assignments),
            "forced": sum(self.forced),
            "routed_counts": list(self.routed_counts),
            "routed_exec": [round(x, 6) for x in self.routed_exec],
            "extra_hosts": {
                shard: len(items) for shard, items in sorted(self.extra_hosts.items())
            },
        }


class _LoadTracker:
    """Sliding-window routed work per shard, plus a static update bias.

    The bias charges each shard its steady-state update CPU rate times
    the window length, so ``least-loaded`` sees update demand (which is
    fixed by the partition) as well as the reads it has routed.
    """

    def __init__(self, n_shards: int, window: float, update_bias: Sequence[float]) -> None:
        self.window = window
        self._bias = list(update_bias)
        self._events: List[List[Tuple[float, float]]] = [[] for _ in range(n_shards)]
        self._sums = [0.0] * n_shards
        self._heads = [0] * n_shards

    def load(self, shard: int, now: float) -> float:
        events = self._events[shard]
        head = self._heads[shard]
        cutoff = now - self.window
        total = self._sums[shard]
        while head < len(events) and events[head][0] <= cutoff:
            total -= events[head][1]
            head += 1
        self._heads[shard] = head
        self._sums[shard] = total
        return total + self._bias[shard]

    def add(self, shard: int, now: float, work: float) -> None:
        self._events[shard].append((now, work))
        self._sums[shard] += work


class _StalenessEstimator:
    """Pending-update estimates for lag-delayed replicas."""

    def __init__(self, update_trace: UpdateTrace, replica_lag: float) -> None:
        self.lag = replica_lag
        self._arrivals: List[List[float]] = []
        for item in update_trace.items:
            self._arrivals.append(list(item.arrival_times(update_trace.horizon)))

    def pending(self, item: int, now: float) -> int:
        """Updates applied at the primary but not yet at a replica."""
        arrivals = self._arrivals[item]
        return bisect_right(arrivals, now) - bisect_right(arrivals, now - self.lag)

    def freshness(self, items: Sequence[int], shard: int, primary: Sequence[int], now: float) -> float:
        """Estimated query freshness at ``shard``: min over items of
        the lag metric, 1.0 for every item whose primary is the shard."""
        worst = 1.0
        for item in items:
            if primary[item] == shard:
                continue
            estimate = lag_freshness(self.pending(item, now))
            if estimate < worst:
                worst = estimate
        return worst


def route_queries(
    query_trace: QueryTrace,
    update_trace: UpdateTrace,
    partition: Partition,
    policy: str,
    replica_lag: float,
    recorder: Optional[Recorder] = None,
) -> RoutingPlan:
    """Assign every query of ``query_trace`` to one shard.

    Deterministic by construction: queries are processed in trace
    (arrival) order, every tie breaks toward the lowest shard id, and
    the only state consulted is the plan built so far.
    """
    if policy not in ROUTER_POLICIES:
        raise ValueError(f"unknown router policy {policy!r}; one of {ROUTER_POLICIES}")

    n_shards = partition.n_shards
    primary = partition.primary
    hosts = partition.hosts
    horizon = update_trace.horizon

    update_rate = [0.0] * n_shards
    for item in update_trace.items:
        if horizon > 0:
            demand = item.count * item.exec_time / horizon
            for shard in hosts[item.item_id]:
                update_rate[shard] += demand
    tracker = _LoadTracker(
        n_shards, _LOAD_WINDOW, [rate * _LOAD_WINDOW for rate in update_rate]
    )
    estimator = _StalenessEstimator(update_trace, replica_lag)

    assignments: List[int] = []
    forced_flags: List[bool] = []
    est_list: List[float] = []
    extra_hosts: Dict[int, List[int]] = {}
    routed_exec = [0.0] * n_shards
    routed_counts = [0] * n_shards
    rr_cursor = 0
    emit = recorder is not None and recorder.enabled

    for index, query in enumerate(query_trace.queries):
        now = query.arrival
        candidates = sorted(set(hosts[query.items[0]]).intersection(
            *(set(hosts[item]) for item in query.items[1:])
        ))
        forced = not candidates
        if forced:
            shard = primary[query.items[0]]
            candidates = [shard]
            bucket = extra_hosts.setdefault(shard, [])
            for item in query.items:
                if shard not in hosts[item]:
                    pos = bisect_left(bucket, item)
                    if pos == len(bucket) or bucket[pos] != item:
                        insort(bucket, item)
        if len(candidates) == 1:
            shard = candidates[0]
        elif policy == "primary":
            shard = primary[query.items[0]]
        elif policy == "round-robin":
            shard = candidates[rr_cursor % len(candidates)]
            rr_cursor += 1
        elif policy == "least-loaded":
            shard = min(candidates, key=lambda s: (tracker.load(s, now), s))
        else:  # freshness
            fresh_enough = [
                s
                for s in candidates
                if estimator.freshness(query.items, s, primary, now)
                >= query.freshness_req
            ]
            pool = fresh_enough or [primary[query.items[0]]]
            shard = min(pool, key=lambda s: (tracker.load(s, now), s))

        estimate = estimator.freshness(query.items, shard, primary, now)
        tracker.add(shard, now, query.exec_time)
        assignments.append(shard)
        forced_flags.append(forced)
        est_list.append(estimate)
        routed_exec[shard] += query.exec_time
        routed_counts[shard] += 1
        if emit:
            # Fleet-level query number (1..N in global trace order);
            # shards renumber their routed subsequences locally, so this
            # coincides with shard txn ids only on a 1-shard fleet.
            recorder.fleet_route(
                now, index + 1, shard, policy, candidates, estimate, forced
            )

    return RoutingPlan(
        policy=policy,
        assignments=assignments,
        forced=forced_flags,
        est_freshness=est_list,
        extra_hosts=extra_hosts,
        routed_exec=routed_exec,
        routed_counts=routed_counts,
    )
