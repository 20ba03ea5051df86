"""Attribution-layer contracts: percentiles, breakdowns, the ledger.

The headline assertion is **exact reconciliation**: the USM-loss
ledger computed from spans must equal the report's Eq. 5 components
float-for-float (same counts, same ``count / total * weight``
operation order), for every penalty profile.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.attrib import (
    AttribAccumulator,
    attrib_report,
    ledger_table,
    percentile,
    percentile_table,
    wait_table,
)
from repro.obs.config import ObsConfig
from repro.obs.spans import build_spans

SMOKE = SCALES["smoke"]
OBS_KEEP = ObsConfig(enabled=True, keep_events=True)


def _run(seed=7, policy="unit", trace="med-unif", profile=None):
    config = ExperimentConfig(
        policy=policy, update_trace=trace, seed=seed, scale=SMOKE,
        profile=profile or PenaltyProfile.naive(), obs=OBS_KEEP,
    )
    report = run_experiment(config)
    return report, build_spans(report.obs_events).spans


def _accumulated(spans):
    """The attribution of ``spans``, folded one span at a time."""
    accumulator = AttribAccumulator()
    for span in spans:
        accumulator.add_span(span)
    return accumulator


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_single_value(self):
        assert percentile([4.0], 0.99) == 4.0

    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        # rank (n-1)*0.9 = 2.7 -> 3.0 + 0.7*(4.0-3.0)
        assert percentile(values, 0.9) == pytest.approx(3.7)

    def test_median_of_odd_list(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [1.0, 5.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_equal_values_stay_in_range(self):
        # Unclamped interpolation returns 0.00018746298938879117 here,
        # one ulp above every observed value.
        values = [0.00018746298938879114] * 39
        assert percentile(values, 0.9) == values[0]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_property_bounded_and_monotone(self, values):
        values = sorted(values)
        p10 = percentile(values, 0.1)
        p90 = percentile(values, 0.9)
        assert values[0] <= p10 <= p90 <= values[-1]

    def test_rows_over_real_spans(self):
        _, spans = _run()
        rows = _accumulated(spans).percentiles()
        completed = [s for s in spans if s.admit is not None]
        assert rows["latency"]["count"] == len(completed)
        assert rows["latency"]["p50"] <= rows["latency"]["p90"]
        assert rows["latency"]["p90"] <= rows["latency"]["p99"]


class TestWaitBreakdown:
    def test_shares_sum_to_one(self):
        _, spans = _run()
        breakdown = _accumulated(spans).waits()
        assert sum(breakdown["shares"].values()) == pytest.approx(1.0)
        assert breakdown["completed"] + breakdown["rejected"] == len(spans)

    def test_totals_match_span_waits_exactly(self):
        _, spans = _run()
        breakdown = _accumulated(spans).waits()
        total_span_time = sum(s.duration for s in spans if s.admit is not None)
        assert sum(breakdown["totals"].values()) == pytest.approx(
            total_span_time, rel=1e-12
        )


class TestLedgerReconciliation:
    @pytest.mark.parametrize(
        "profile",
        [PenaltyProfile.naive(), TABLE2_PROFILES["gt1-high-cr"],
         TABLE2_PROFILES["lt1-high-cfs"]],
        ids=lambda p: p.name or "naive",
    )
    def test_ledger_equals_report_components(self, profile):
        report, spans = _run(profile=profile)
        ledger = _accumulated(spans).ledger(profile)
        assert ledger["total"] == report.queries_submitted
        assert ledger["components"] == report.components  # exact floats
        assert ledger["usm"] == report.usm

    def test_cause_counts_cover_all_losses(self):
        report, spans = _run()
        ledger = _accumulated(spans).ledger(PenaltyProfile.naive())
        for component in ("R", "F_m", "F_s"):
            assert sum(ledger["causes"][component].values()) == (
                ledger["counts"][component]
            ), component
        assert ledger["causes"]["S"] == {}


class TestRendering:
    def test_tables_render_without_error(self):
        _, spans = _run()
        report = attrib_report(spans, PenaltyProfile.naive())
        assert "queued" in wait_table(report["waits"])
        assert "p99" in percentile_table(report["percentiles"])
        text = ledger_table(report["ledger"])
        assert "F_m" in text and "USM=" in text

    def test_empty_span_set_renders(self):
        report = attrib_report([], PenaltyProfile.naive())
        assert report["ledger"]["total"] == 0
        assert report["percentiles"]["latency"]["p50"] is None
        assert "latency" in percentile_table(report["percentiles"])
        assert "USM=" in ledger_table(report["ledger"])
