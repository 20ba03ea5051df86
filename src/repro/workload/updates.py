"""The paper's nine update traces (Table 1) at configurable scale.

Table 1 defines three volumes — 6 144 / 30 000 / ~60 000 total updates,
stated as 15 % / 75 % / 150 % CPU utilization — crossed with three
spatial distributions: uniform, positively correlated, and negatively
correlated with the query access histogram (coefficient 0.8).  Updates
are strictly periodic per item ("we only have periodic updates, so the
temporal distribution is fixed"); per-item execution times are drawn
from a right-skewed distribution like the write response times of the
original disk trace.

At our simulation scale the *utilization targets* are the invariant: we
allocate per-item update counts proportional to the spatial weights and
scale the total so aggregate CPU demand hits the target fraction of the
horizon.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.sim.rng import RandomStreams
from repro.sim.stats import ordered_sum
from repro.workload.correlation import correlated_weights
from repro.workload.distributions import lognormal_from_mean_cv


@dataclasses.dataclass(frozen=True)
class UpdateTraceSpec:
    """Identity of one of the standard update traces."""

    name: str  # e.g. "med-unif"
    volume: str  # "low" | "med" | "high"
    correlation: str  # "unif" | "pos" | "neg"
    utilization: float  # target CPU fraction
    paper_total_updates: int  # the count Table 1 reports at paper scale


VOLUME_UTILIZATION: Dict[str, float] = {"low": 0.15, "med": 0.75, "high": 1.50}

# Table 1's totals; the "high" figure is garbled in our source text and
# reconstructed as 60 000 (linear in utilization) — see DESIGN.md §3.
PAPER_TOTALS: Dict[str, int] = {"low": 6144, "med": 30000, "high": 60000}

CORRELATIONS: Dict[str, float] = {"unif": 0.0, "pos": 0.8, "neg": -0.8}

# Coefficient of variation of per-item update execution times.
_EXEC_CV = 0.5

STANDARD_UPDATE_TRACES: Dict[str, UpdateTraceSpec] = {
    f"{volume}-{corr}": UpdateTraceSpec(
        name=f"{volume}-{corr}",
        volume=volume,
        correlation=corr,
        utilization=VOLUME_UTILIZATION[volume],
        paper_total_updates=PAPER_TOTALS[volume],
    )
    for volume in ("low", "med", "high")
    for corr in ("unif", "pos", "neg")
}


@dataclasses.dataclass(frozen=True)
class ItemUpdateSpec:
    """Per-item periodic update stream.

    ``count == 0`` models an item that receives no updates within the
    horizon; its period is set beyond the horizon so the item is always
    fresh.
    """

    item_id: int
    count: int
    period: float
    phase: float
    exec_time: float

    def arrival_times(self, horizon: float) -> Iterator[float]:
        """Strictly periodic arrivals ``phase + k * period`` within the horizon."""
        if self.count == 0:
            return
        time = self.phase
        emitted = 0
        while time <= horizon and emitted < self.count:
            yield time
            time += self.period
            emitted += 1


@dataclasses.dataclass
class UpdateTrace:
    """A full update workload: one periodic stream per item."""

    name: str
    horizon: float
    items: List[ItemUpdateSpec]
    target_utilization: float

    def total_updates(self) -> int:
        return sum(item.count for item in self.items)

    def utilization(self) -> float:
        """Actual CPU demand as a fraction of the horizon."""
        if self.horizon <= 0:
            return 0.0
        demand = ordered_sum(item.count * item.exec_time for item in self.items)
        return demand / self.horizon

    def per_item_counts(self) -> List[int]:
        return [item.count for item in self.items]

    def arrival_events(self) -> List[Tuple[float, int]]:
        """All ``(time, item_id)`` arrivals, sorted by time."""
        events: List[Tuple[float, int]] = []
        for item in self.items:
            events.extend((time, item.item_id) for time in item.arrival_times(self.horizon))
        events.sort()
        return events


def _largest_remainder_counts(weights: Sequence[float], total: int) -> List[int]:
    """Apportion ``total`` integer counts proportionally to ``weights``."""
    weight_sum = ordered_sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must not all be zero")
    raw = [total * weight / weight_sum for weight in weights]
    counts = [int(value) for value in raw]
    remainder = total - sum(counts)
    by_frac = sorted(
        range(len(weights)), key=lambda i: raw[i] - counts[i], reverse=True
    )
    for index in by_frac[:remainder]:
        counts[index] += 1
    return counts


def build_update_trace(
    spec: UpdateTraceSpec,
    query_access_counts: Sequence[int],
    horizon: float,
    streams: RandomStreams,
    mean_exec: float,
) -> UpdateTrace:
    """Build an update trace hitting ``spec.utilization`` on ``horizon``.

    Args:
        spec: Which of the nine standard traces (or a custom spec).
        query_access_counts: Per-item query histogram, the correlation
            reference for the ``pos``/``neg`` spatial mixes.
        horizon: Simulation horizon in seconds.
        streams: Random streams (substreams ``update-<name>-*``).
        mean_exec: Mean per-update execution time (the stand-in for
            cello99a write response times).
    """
    n_items = len(query_access_counts)
    if n_items == 0:
        raise ValueError("query_access_counts cannot be empty")

    weight_rng = streams.stream(f"update-{spec.name}-weights")
    exec_rng = streams.stream(f"update-{spec.name}-exec")
    phase_rng = streams.stream(f"update-{spec.name}-phase")

    if spec.correlation == "unif":
        weights: List[float] = [1.0] * n_items
    else:
        rho = CORRELATIONS[spec.correlation]
        weights = correlated_weights([float(c) for c in query_access_counts], rho, weight_rng)

    exec_times = [
        lognormal_from_mean_cv(mean_exec, _EXEC_CV, exec_rng) for _ in range(n_items)
    ]

    # Scale total count so the aggregate CPU demand hits the target:
    # counts ∝ weights, and sum(count_j * exec_j) = utilization * horizon.
    demand_per_unit = ordered_sum(w * e for w, e in zip(weights, exec_times))
    if demand_per_unit <= 0:
        raise ValueError("degenerate weights/exec-times combination")
    scale = spec.utilization * horizon / demand_per_unit
    total = max(1, round(scale * ordered_sum(weights)))
    counts = _largest_remainder_counts(weights, total)

    items: List[ItemUpdateSpec] = []
    for item_id, (count, exec_time) in enumerate(zip(counts, exec_times)):
        if count > 0:
            period = horizon / count
            phase = phase_rng.uniform(0.0, period)
        else:
            period = 2.0 * horizon
            phase = horizon  # never fires
        items.append(
            ItemUpdateSpec(
                item_id=item_id,
                count=count,
                period=period,
                phase=phase,
                exec_time=exec_time,
            )
        )
    return UpdateTrace(
        name=spec.name,
        horizon=horizon,
        items=items,
        target_utilization=spec.utilization,
    )
