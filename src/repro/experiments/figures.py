"""Reproduction of Figures 3–6 (paper Section 4).

Each figure is a list of cells (``figureN_cells``) plus a reader over
their reports (``read_figureN``), so that several figures can run as one
:func:`repro.experiments.sweep.run_cells` call, which simulates each
distinct cell once; ``figureN`` is the one-call form.  A ``render_*``
companion prints the same rows/series the paper's figure reports.
Absolute numbers differ from the paper (our substrate is a simulator at
a different scale); the assertions of shape — who wins, by roughly what
factor, where the crossovers fall — live in the test suite and in
EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.db.transactions import Outcome
from repro.experiments.config import ExperimentConfig, ExperimentScale
from repro.experiments.report import ascii_table, decile_histogram
from repro.experiments.runner import SimulationReport
from repro.experiments.sweep import grid_cells, run_cells
from repro.workload.correlation import pearson

ALL_POLICIES = ("imu", "odu", "qmf", "unit")
VOLUMES = ("low", "med", "high")
CORRELATIONS = ("unif", "pos", "neg")
NAIVE = PenaltyProfile.naive()


# ----------------------------------------------------------------------
# Figure 3 — access/update distributions, original vs UNIT-degraded
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Figure3Case:
    """One Fig. 3 case study (med-unif or med-neg)."""

    trace: str
    query_access_counts: List[int]
    update_counts_original: List[int]
    update_counts_executed: List[int]

    @property
    def drop_fraction(self) -> float:
        original = sum(self.update_counts_original)
        if not original:
            return 0.0
        return 1.0 - sum(self.update_counts_executed) / original

    @property
    def corr_original_vs_queries(self) -> float:
        return pearson(
            [float(c) for c in self.update_counts_original],
            [float(c) for c in self.query_access_counts],
        )

    @property
    def corr_executed_vs_queries(self) -> float:
        return pearson(
            [float(c) for c in self.update_counts_executed],
            [float(c) for c in self.query_access_counts],
        )


def figure3_cells(scale: ExperimentScale, seed: int = 7) -> List[ExperimentConfig]:
    return grid_cells(["unit"], ["med-unif", "med-neg"], [NAIVE], scale, seed=seed)


def read_figure3(reports: Sequence[SimulationReport]) -> Dict[str, Figure3Case]:
    return {
        report.config.update_trace: Figure3Case(
            trace=report.config.update_trace,
            query_access_counts=report.query_access_counts,
            update_counts_original=report.update_counts_original,
            update_counts_executed=report.update_counts_executed,
        )
        for report in reports
    }


def figure3(scale: ExperimentScale, seed: int = 7) -> Dict[str, Figure3Case]:
    """Run UNIT on med-unif and med-neg and collect the distributions.

    The paper's claims: under med-unif, the *kept* updates follow the
    query distribution (Fig. 3(b)); under med-neg, more than 95 % of
    updates are dropped, concentrated on hot-updated/cold-queried items
    (Fig. 3(c)).
    """
    return read_figure3(run_cells(figure3_cells(scale, seed=seed)))


def render_figure3(cases: Dict[str, Figure3Case], buckets: int = 10) -> str:
    blocks: List[str] = ["Figure 3 — distributions over data (UNIT degradation)"]
    reference = next(iter(cases.values()))
    blocks.append(
        ascii_table(
            headers=["id-range bucket"] + [str(i) for i in range(buckets)],
            rows=[
                ["queries (Fig 3a)"]
                + decile_histogram(reference.query_access_counts, buckets)
            ],
        )
    )
    for case in cases.values():
        blocks.append(
            ascii_table(
                headers=["series"] + [str(i) for i in range(buckets)],
                rows=[
                    ["updates original"]
                    + decile_histogram(case.update_counts_original, buckets),
                    ["updates executed"]
                    + decile_histogram(case.update_counts_executed, buckets),
                ],
                title=(
                    f"{case.trace}: dropped {case.drop_fraction:.1%}; "
                    f"corr(updates, queries) original "
                    f"{case.corr_original_vs_queries:+.3f} -> executed "
                    f"{case.corr_executed_vs_queries:+.3f}"
                ),
            )
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Figure 4 — naive USM (success ratio) across the nine traces
# ----------------------------------------------------------------------


FIGURE4_TRACES = tuple(f"{volume}-{corr}" for corr in CORRELATIONS for volume in VOLUMES)


def figure4_cells(
    scale: ExperimentScale, seed: int = 7, replications: int = 1
) -> List[ExperimentConfig]:
    if replications < 1:
        raise ValueError("replications must be >= 1")
    return [
        cell
        for rep in range(replications)
        for cell in grid_cells(ALL_POLICIES, FIGURE4_TRACES, [NAIVE], scale, seed=seed + rep)
    ]


def read_figure4(reports: Sequence[SimulationReport]) -> Dict[str, Dict[str, float]]:
    replications = len({report.config.seed for report in reports})
    result: Dict[str, Dict[str, float]] = {
        trace: {policy: 0.0 for policy in ALL_POLICIES} for trace in FIGURE4_TRACES
    }
    for report in reports:
        config = report.config
        result[config.update_trace][config.policy] += report.usm / replications
    return result


def figure4(
    scale: ExperimentScale,
    seed: int = 7,
    progress: bool = False,
    replications: int = 1,
) -> Dict[str, Dict[str, float]]:
    """Naive USM for every (trace, policy): the Fig. 4 bar matrix.

    Returns ``{trace: {policy: usm}}`` with all weights zero, so USM is
    the plain success ratio.  With ``replications > 1`` each cell is
    the mean over seeds ``seed .. seed + replications - 1`` (each seed
    is a fresh workload; every policy still sees the identical one).
    """
    cells = figure4_cells(scale, seed=seed, replications=replications)
    return read_figure4(run_cells(cells, progress=progress))


def render_figure4(data: Dict[str, Dict[str, float]]) -> str:
    blocks: List[str] = []
    panels = {"unif": "(a) Uniform", "pos": "(b) Positive corr.", "neg": "(c) Negative corr."}
    for corr, panel_title in panels.items():
        rows = []
        for volume in VOLUMES:
            trace = f"{volume}-{corr}"
            if trace not in data:
                continue
            rows.append(
                [trace] + [data[trace].get(policy, float("nan")) for policy in ALL_POLICIES]
            )
        blocks.append(
            ascii_table(
                headers=["trace"] + [policy.upper() for policy in ALL_POLICIES],
                rows=rows,
                title=f"Figure 4 {panel_title} — naive USM (success ratio)",
            )
        )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Figure 5 — USM under non-zero penalties (Table 2 weights)
# ----------------------------------------------------------------------


def figure5_cells(
    scale: ExperimentScale, seed: int = 7, trace: str = "med-unif"
) -> List[ExperimentConfig]:
    return grid_cells(ALL_POLICIES, [trace], TABLE2_PROFILES.values(), scale, seed=seed)


def read_figure5(reports: Sequence[SimulationReport]) -> Dict[str, Dict[str, float]]:
    key_by_name = {profile.name: key for key, profile in TABLE2_PROFILES.items()}
    result: Dict[str, Dict[str, float]] = {}
    for report in reports:
        key = key_by_name[report.config.profile.name]
        result.setdefault(key, {})[report.config.policy] = report.usm
    return result


def figure5(
    scale: ExperimentScale,
    seed: int = 7,
    trace: str = "med-unif",
    progress: bool = False,
) -> Dict[str, Dict[str, float]]:
    """USM per (profile-key, policy) on ``trace`` — the Fig. 5 panels.

    Profile keys are the Table 2 entries: ``lt1-*`` for panel (a)
    (penalties < 1), ``gt1-*`` for panel (b) (penalties > 1).
    """
    cells = figure5_cells(scale, seed=seed, trace=trace)
    return read_figure5(run_cells(cells, progress=progress))


def render_figure5(data: Dict[str, Dict[str, float]]) -> str:
    blocks: List[str] = []
    panels = {
        "lt1": "(a) penalties < 1",
        "gt1": "(b) penalties > 1",
    }
    for prefix, panel_title in panels.items():
        rows = []
        for key in sorted(key for key in data if key.startswith(prefix)):
            rows.append(
                [TABLE2_PROFILES[key].name]
                + [data[key].get(policy, float("nan")) for policy in ALL_POLICIES]
            )
        if rows:
            blocks.append(
                ascii_table(
                    headers=["setting"] + [policy.upper() for policy in ALL_POLICIES],
                    rows=rows,
                    title=f"Figure 5 {panel_title} — USM on med-unif",
                )
            )
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Figure 6 — outcome-ratio decomposition
# ----------------------------------------------------------------------


@dataclasses.dataclass
class RatioBar:
    """One stacked bar of Fig. 6."""

    label: str
    success: float
    rejection: float
    dmf: float
    dsf: float

    @classmethod
    def from_report(cls, label: str, report: SimulationReport) -> "RatioBar":
        ratios = report.ratios
        return cls(
            label=label,
            success=ratios[Outcome.SUCCESS],
            rejection=ratios[Outcome.REJECTED],
            dmf=ratios[Outcome.DEADLINE_MISS],
            dsf=ratios[Outcome.DATA_STALE],
        )


def figure6_cells(
    scale: ExperimentScale, seed: int = 7, trace: str = "med-unif"
) -> List[ExperimentConfig]:
    lt1 = [TABLE2_PROFILES[key] for key in ("lt1-high-cr", "lt1-high-cfm", "lt1-high-cfs")]
    return grid_cells(("imu", "odu", "qmf"), [trace], [NAIVE], scale, seed=seed) + (
        grid_cells(["unit"], [trace], lt1, scale, seed=seed)
    )


def read_figure6(reports: Sequence[SimulationReport]) -> Dict[str, List[RatioBar]]:
    return {
        "baselines": [
            RatioBar.from_report(report.config.policy.upper(), report)
            for report in reports
            if report.config.policy != "unit"
        ],
        "unit": [
            RatioBar.from_report(f"UNIT {report.config.profile.name}", report)
            for report in reports
            if report.config.policy == "unit"
        ],
    }


def figure6(
    scale: ExperimentScale,
    seed: int = 7,
    trace: str = "med-unif",
    progress: bool = False,
) -> Dict[str, List[RatioBar]]:
    """Outcome ratios: panel (a) the weight-insensitive baselines,
    panel (b) UNIT under the three penalties-<1 profiles of Fig. 5(a).
    """
    cells = figure6_cells(scale, seed=seed, trace=trace)
    return read_figure6(run_cells(cells, progress=progress))


def render_figure6(data: Dict[str, List[RatioBar]]) -> str:
    def table(bars: List[RatioBar], title: str) -> str:
        return ascii_table(
            headers=["policy", "R_s", "R_r", "R_fm", "R_fs"],
            rows=[
                [bar.label, bar.success, bar.rejection, bar.dmf, bar.dsf]
                for bar in bars
            ],
            title=title,
        )

    return "\n\n".join(
        [
            table(data["baselines"], "Figure 6(a) — baselines (weight-insensitive)"),
            table(data["unit"], "Figure 6(b) — UNIT under Fig. 5(a) weight setups"),
        ]
    )
