"""Tests for the nine standard update traces (Table 1)."""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.correlation import pearson
from repro.workload.updates import (
    PAPER_TOTALS,
    STANDARD_UPDATE_TRACES,
    UpdateTraceSpec,
    _largest_remainder_counts,
    build_update_trace,
)


def reference_counts(n=64, seed=0):
    """A plausible skewed query histogram."""
    import random

    rng = random.Random(seed)
    return [int(rng.expovariate(1.0) * 50) + (5 if i < 10 else 0) for i in range(n)]


class TestStandardSpecs:
    def test_nine_traces(self):
        assert len(STANDARD_UPDATE_TRACES) == 9
        assert set(PAPER_TOTALS) == {"low", "med", "high"}

    def test_utilization_targets(self):
        assert STANDARD_UPDATE_TRACES["low-unif"].utilization == 0.15
        assert STANDARD_UPDATE_TRACES["med-pos"].utilization == 0.75
        assert STANDARD_UPDATE_TRACES["high-neg"].utilization == 1.50

    def test_paper_totals(self):
        assert STANDARD_UPDATE_TRACES["low-unif"].paper_total_updates == 6144
        assert STANDARD_UPDATE_TRACES["med-unif"].paper_total_updates == 30000
        assert STANDARD_UPDATE_TRACES["high-unif"].paper_total_updates == 60000


class TestLargestRemainder:
    def test_exact_total(self):
        counts = _largest_remainder_counts([1.0, 1.0, 1.0], 10)
        assert sum(counts) == 10

    def test_proportionality(self):
        counts = _largest_remainder_counts([1.0, 3.0], 40)
        assert counts == [10, 30]

    def test_zero_weights_allowed_if_some_positive(self):
        counts = _largest_remainder_counts([0.0, 1.0], 7)
        assert counts == [0, 7]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            _largest_remainder_counts([0.0, 0.0], 5)


class TestBuildUpdateTrace:
    def build(self, name="med-unif", horizon=400.0, seed=1):
        return build_update_trace(
            STANDARD_UPDATE_TRACES[name],
            reference_counts(),
            horizon=horizon,
            streams=RandomStreams(seed),
            mean_exec=0.15,
        )

    @pytest.mark.parametrize("name", sorted(STANDARD_UPDATE_TRACES))
    def test_utilization_within_tolerance(self, name):
        trace = self.build(name)
        target = STANDARD_UPDATE_TRACES[name].utilization
        assert trace.utilization() == pytest.approx(target, rel=0.10)

    def test_uniform_counts_are_flat(self):
        trace = self.build("med-unif")
        counts = trace.per_item_counts()
        assert max(counts) - min(counts) <= 1

    def test_positive_correlation_achieved(self):
        trace = self.build("med-pos")
        rho = pearson(
            [float(c) for c in trace.per_item_counts()],
            [float(c) for c in reference_counts()],
        )
        assert rho == pytest.approx(0.8, abs=0.1)

    def test_negative_correlation_achieved(self):
        trace = self.build("med-neg")
        rho = pearson(
            [float(c) for c in trace.per_item_counts()],
            [float(c) for c in reference_counts()],
        )
        assert rho == pytest.approx(-0.8, abs=0.1)

    def test_volumes_ordered(self):
        low = self.build("low-unif").total_updates()
        med = self.build("med-unif").total_updates()
        high = self.build("high-unif").total_updates()
        assert low < med < high

    def test_arrivals_periodic_per_item(self):
        trace = self.build("low-unif")
        for item in trace.items:
            times = list(item.arrival_times(trace.horizon))
            assert len(times) <= item.count
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(gap == pytest.approx(item.period) for gap in gaps)

    def test_arrival_events_sorted_and_complete(self):
        trace = self.build("low-unif")
        events = trace.arrival_events()
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert len(events) == sum(
            len(list(item.arrival_times(trace.horizon))) for item in trace.items
        )

    def test_zero_count_items_never_fire(self):
        spec = UpdateTraceSpec(
            name="tiny", volume="low", correlation="unif",
            utilization=0.001, paper_total_updates=0,
        )
        trace = build_update_trace(
            spec,
            reference_counts(),
            horizon=100.0,
            streams=RandomStreams(2),
            mean_exec=0.15,
        )
        for item in trace.items:
            if item.count == 0:
                assert list(item.arrival_times(trace.horizon)) == []
                assert item.period > trace.horizon

    def test_deterministic(self):
        a = self.build(seed=9)
        b = self.build(seed=9)
        assert a.per_item_counts() == b.per_item_counts()
        assert a.arrival_events() == b.arrival_events()

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            build_update_trace(
                STANDARD_UPDATE_TRACES["low-unif"], [], 100.0, RandomStreams(0), 0.15
            )
