"""Flash crowd on a news aggregator: watching the feedback loop work.

A personalized news/blog aggregation service (another of the paper's
Section 1 applications) serves reads over a database of stories that
are refreshed periodically from upstream feeds.  A breaking-news flash
crowd multiplies the query rate for a couple of minutes.

This example runs UNIT through the crowd and samples the *control
state* over time — windowed USM, the admission knob ``C_flex``, the
number of degraded feeds, and the cumulative outcome mix — so you can
watch the Load Balancing Controller react: tighten/degrade as the crowd
hits, relax after it passes.

Run:
    python examples/flash_crowd.py
"""

import dataclasses

from repro.core.unit import UnitConfig
from repro.core.usm import PenaltyProfile
from repro.db.server import CONTROL_EVENT_PRIORITY
from repro.db.transactions import Outcome
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import ascii_table
from repro.experiments.runner import Substrate
from repro.workload.cache import get_workload


@dataclasses.dataclass
class Sample:
    time: float
    windowed_usm: float
    c_flex: float
    degraded_items: int
    rejected: int
    missed: int
    stale: int
    succeeded: int


def main() -> None:
    # One long, violent flash crowd instead of background burstiness.
    scale = SCALES["small"]
    config = ExperimentConfig(
        policy="unit",
        update_trace="low-unif",  # light background updates: the crowd is the story
        seed=11,
        scale=scale,
        burst_factor=6.0,
        normal_dwell=150.0,
        burst_dwell=30.0,
        unit=UnitConfig(profile=PenaltyProfile.naive(), control_period=1.0),
    )
    substrate = Substrate(config, *get_workload(config))
    sim, server, policy = substrate.sim, substrate.server, substrate.policy

    samples = []

    def sample():
        usm = policy.usm_window.average_usm(sim.now)
        samples.append(
            Sample(
                time=sim.now,
                windowed_usm=usm if usm is not None else float("nan"),
                c_flex=policy.admission.c_flex,
                degraded_items=policy.modulator.degraded_count(),
                rejected=server.outcome_counts[Outcome.REJECTED],
                missed=server.outcome_counts[Outcome.DEADLINE_MISS],
                stale=server.outcome_counts[Outcome.DATA_STALE],
                succeeded=server.outcome_counts[Outcome.SUCCESS],
            )
        )
        if sim.now + 20.0 <= scale.horizon:
            sim.schedule_after(20.0, sample, priority=CONTROL_EVENT_PRIORITY)

    # The probe samples the control state every 20 s up to the horizon;
    # finish() then drains every admitted query and builds the report.
    sim.schedule(20.0, sample, priority=CONTROL_EVENT_PRIORITY)
    report = substrate.finish()

    rows = [
        [
            f"{s.time:.0f}",
            f"{s.windowed_usm:+.3f}",
            f"{s.c_flex:.3f}",
            s.degraded_items,
            s.succeeded,
            s.rejected,
            s.missed,
            s.stale,
        ]
        for s in samples
    ]
    print(
        ascii_table(
            ["t(s)", "USM(win)", "C_flex", "degraded", "ok", "rej", "DMF", "DSF"],
            rows,
            title="UNIT riding a flash crowd (cumulative outcome counts)",
        )
    )
    print(
        f"\nfinal: {report.queries_submitted} queries, success ratio "
        f"{report.success_ratio:.3f}, "
        f"updates dropped {report.updates_dropped}/{report.update_arrivals}"
    )


if __name__ == "__main__":
    main()
