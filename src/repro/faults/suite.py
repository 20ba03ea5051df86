"""The canned degradation suite: UNIT vs the baselines under faults.

Runs one fault scenario against each policy in the paper's comparison
set (UNIT, IMU, ODU, QMF) with identical seeds and workloads, computes
the per-window degradation metrics, and renders the comparison as an
ASCII table, dip-depth/recovery bar charts, and a JSON report.  This is
the graceful-degradation counterpart to the steady-state figures: the
paper argues user-centric modulation should *bend* under stress where
update-centric policies break, and these numbers make that claim
checkable.

Not imported by :mod:`repro.faults` eagerly — this module pulls in the
experiments stack, which itself imports the scenario schema.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.usm import PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import ascii_table, bar_chart, json_sanitize
from repro.experiments.runner import SimulationReport
from repro.experiments.sweep import run_grid
from repro.faults.scenario import FaultScenario
from repro.faults.scenarios import canned

#: The paper's comparison set (the elastic baseline is steady-state
#: related work; the degradation story is UNIT vs the Chapter-2 trio).
SUITE_POLICIES = ("unit", "imu", "odu", "qmf")


@dataclasses.dataclass
class SuiteResult:
    """One policy's run + degradation metrics under the scenario."""

    policy: str
    report: SimulationReport

    @property
    def degradation(self) -> Dict[str, object]:
        assert self.report.degradation is not None
        return self.report.degradation

    def window_rows(self) -> List[Dict[str, object]]:
        windows = self.degradation["windows"]
        assert isinstance(windows, list)
        return windows


def run_suite(
    scenario: FaultScenario,
    scale: str = "smoke",
    update_trace: str = "med-unif",
    seed: int = 7,
    policies: Sequence[str] = SUITE_POLICIES,
) -> List[SuiteResult]:
    """Run every policy against the same scenario/seed/workload."""
    reports = run_grid(
        policies,
        [update_trace],
        [PenaltyProfile.naive()],
        SCALES[scale],
        seed=seed,
        base=ExperimentConfig(keep_records=True, faults=scenario),
    )
    return [
        SuiteResult(policy=policy, report=report)
        for (policy, _, _), report in reports.items()
    ]


def _fmt_opt(value: object) -> object:
    return "-" if value is None else value


def render_suite(results: Sequence[SuiteResult], scenario: FaultScenario) -> str:
    """ASCII table + bar charts comparing recovery across policies."""
    rows: List[List[object]] = []
    for result in results:
        for window in result.window_rows():
            rows.append(
                [
                    result.policy,
                    window["label"],
                    result.report.usm,
                    _fmt_opt(window["baseline_usm"]),
                    _fmt_opt(window["dip_depth"]),
                    window["time_below"],
                    _fmt_opt(window["recovery_time"]),
                ]
            )
    table = ascii_table(
        [
            "policy",
            "window",
            "run USM",
            "baseline",
            "dip depth",
            "below band (s)",
            "recovery (s)",
        ],
        rows,
        title=f"Degradation under scenario '{scenario.name}'",
    )

    dip: Dict[str, float] = {}
    recovery: Dict[str, float] = {}
    for result in results:
        windows = result.window_rows()
        dips = [w["dip_depth"] for w in windows if w["dip_depth"] is not None]
        dip[result.policy] = max(dips) if dips else 0.0  # type: ignore[type-var]
        times = [
            w["recovery_time"] for w in windows if w["recovery_time"] is not None
        ]
        # An unrecovered window dominates: chart it as the full span from
        # the earliest fault end to the horizon so "never" reads worst.
        if len(times) < len(windows):
            horizon = results[0].report.config.scale.horizon
            earliest_end = min(float(w["end"]) for w in windows) if windows else 0.0
            recovery[result.policy] = horizon - earliest_end
        else:
            recovery[result.policy] = max(times) if times else 0.0  # type: ignore[type-var]

    charts = [
        bar_chart(dip, title="Worst USM dip depth (lower is better)"),
        bar_chart(
            recovery,
            title="Worst recovery time, s (lower is better; unrecovered = full tail)",
        ),
    ]
    return "\n\n".join([table] + charts)


def suite_payload(
    results: Sequence[SuiteResult], scenario: FaultScenario
) -> Dict[str, object]:
    """JSON-safe suite report (per policy: summary + degradation)."""
    return {
        "scenario": scenario.describe(),
        "policies": [
            json_sanitize(
                {
                    "policy": result.policy,
                    "usm": result.report.usm,
                    "queries": result.report.queries_submitted,
                    "degradation": result.degradation,
                }
            )
            for result in results
        ],
    }


def write_suite_report(
    results: Sequence[SuiteResult],
    scenario: FaultScenario,
    out_dir: str,
) -> List[Path]:
    """Write the JSON report and the rendered figures; return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"degradation-{scenario.name}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(suite_payload(results, scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
    text_path = out / f"degradation-{scenario.name}.txt"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(render_suite(results, scenario))
        fh.write("\n")
    return [json_path, text_path]


def run_canned_suite(
    name: str,
    scale: str = "smoke",
    update_trace: str = "med-unif",
    seed: int = 7,
    out_dir: Optional[str] = None,
) -> str:
    """Build the named canned scenario, run the suite, render it.

    Returns the rendered comparison; writes artifacts when ``out_dir``
    is given.
    """
    preset = SCALES[scale]
    scenario = canned(name, preset.horizon, preset.n_items)
    results = run_suite(
        scenario, scale=scale, update_trace=update_trace, seed=seed
    )
    if out_dir is not None:
        write_suite_report(results, scenario, out_dir)
    return render_suite(results, scenario)
