"""Table 1 (the nine update traces) and Table 2 (the USM weights)."""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.experiments.config import ExperimentConfig, ExperimentScale
from repro.experiments.report import ascii_table
from repro.workload.cache import get_workload
from repro.workload.correlation import pearson
from repro.workload.updates import STANDARD_UPDATE_TRACES


@dataclasses.dataclass
class Table1Row:
    """One update trace, with paper-scale and our-scale statistics."""

    name: str
    distribution: str
    target_utilization: float
    actual_utilization: float
    total_updates: int
    paper_total_updates: int
    correlation_with_queries: float


def table1(scale: ExperimentScale, seed: int = 7) -> List[Table1Row]:
    """Regenerate Table 1 at the given scale.

    Takes the nine update traces of the experiments' workloads at
    ``seed`` (all correlate against the same base query trace, as in the
    paper) and reports achieved utilization and spatial correlation.
    """
    rows: List[Table1Row] = []
    for name in sorted(
        STANDARD_UPDATE_TRACES,
        key=lambda n: (
            ["low", "med", "high"].index(STANDARD_UPDATE_TRACES[n].volume),
            ["unif", "pos", "neg"].index(STANDARD_UPDATE_TRACES[n].correlation),
        ),
    ):
        spec = STANDARD_UPDATE_TRACES[name]
        query_trace, trace = get_workload(
            ExperimentConfig(update_trace=name, seed=seed, scale=scale)
        )
        access_counts = query_trace.access_counts()
        rows.append(
            Table1Row(
                name=spec.name,
                distribution={
                    "unif": "uniform",
                    "pos": "positive correlation",
                    "neg": "negative correlation",
                }[spec.correlation],
                target_utilization=spec.utilization,
                actual_utilization=trace.utilization(),
                total_updates=trace.total_updates(),
                paper_total_updates=spec.paper_total_updates,
                correlation_with_queries=pearson(
                    [float(c) for c in trace.per_item_counts()],
                    [float(c) for c in access_counts],
                ),
            )
        )
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    return ascii_table(
        headers=[
            "trace",
            "distribution",
            "target util",
            "actual util",
            "updates (ours)",
            "updates (paper)",
            "corr w/ queries",
        ],
        rows=[
            [
                row.name,
                row.distribution,
                f"{row.target_utilization:.0%}",
                f"{row.actual_utilization:.1%}",
                row.total_updates,
                row.paper_total_updates,
                f"{row.correlation_with_queries:+.3f}",
            ]
            for row in rows
        ],
        title="Table 1 — update traces (volumes x spatial distributions)",
    )


def table2() -> Dict[str, PenaltyProfile]:
    """The six Fig. 5 weight settings, keyed as in
    :data:`repro.core.usm.TABLE2_PROFILES`."""
    return dict(TABLE2_PROFILES)


def render_table2() -> str:
    rows = []
    for key, profile in TABLE2_PROFILES.items():
        rows.append(
            [key, profile.name, profile.gain, profile.c_r, profile.c_fm, profile.c_fs]
        )
    return ascii_table(
        headers=["key", "setting", "C_s", "C_r", "C_fm", "C_fs"],
        rows=rows,
        title="Table 2 — USM weights for Figure 5",
    )
