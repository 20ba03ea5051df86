"""The recorder's per-kind counts reconcile with the run's report.

``TraceRecorder.counts`` sees every event, even those the ring evicts,
so the outcome, admission and update counts it holds must equal the
ones the server keeps for the report, whatever the ring size.
"""

import pytest

from repro.db.transactions import Outcome
from repro.experiments.config import POLICIES, SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.config import ObsConfig

#: A ring that holds a small cell's whole trace, and one that wraps.
FULL_RING = 262_144
WRAPPING_RING = 4_096


@pytest.mark.parametrize("capacity", [FULL_RING, WRAPPING_RING])
@pytest.mark.parametrize("trace", ["med-unif", "high-unif"])
@pytest.mark.parametrize("policy", POLICIES)
def test_trace_counts_match_report(policy, trace, capacity):
    report = run_experiment(
        ExperimentConfig(
            policy=policy,
            update_trace=trace,
            seed=7,
            scale=SCALES["small"],
            obs=ObsConfig(capacity=capacity, spans=False),
        )
    )
    summary = report.obs_summary
    if capacity == WRAPPING_RING:
        assert summary["dropped"] > 0
    else:
        assert summary["dropped"] == 0
    by_kind = summary["by_kind"]
    rejected = report.outcome_counts.get(Outcome.REJECTED, 0)
    assert by_kind["query.outcome"] == report.queries_submitted
    assert by_kind["query.admit"] == report.queries_submitted - rejected
    assert by_kind["update.apply"] == report.updates_executed
    assert by_kind.get("update.drop", 0) == report.updates_dropped
