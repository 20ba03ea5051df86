"""Tests for the graceful-degradation metrics (synthetic records)."""

import pytest

from repro.core.usm import PenaltyProfile
from repro.db.transactions import Outcome, QueryRecord
from repro.faults import FaultScenario, ServerSlowdown
from repro.faults.metrics import degradation_metrics, usm_time_series


def record(finish, outcome):
    return QueryRecord(
        txn_id=0,
        arrival=max(0.0, finish - 1.0),
        items=(0,),
        exec_time=0.5,
        relative_deadline=1.0,
        freshness_req=0.9,
        outcome=outcome,
        finish_time=finish,
        freshness=1.0,
    )


def successes(times):
    return [record(t, Outcome.SUCCESS) for t in times]


def misses(times):
    return [record(t, Outcome.DEADLINE_MISS) for t in times]


NAIVE = PenaltyProfile.naive()  # success=1, everything else 0 -> USM in [0,1]


def scenario(start=40.0, end=60.0):
    return FaultScenario(
        name="s", slowdowns=[ServerSlowdown(start=start, end=end, rate=0.5)]
    )


class TestUsmTimeSeries:
    def test_buckets_average_contributions(self):
        records = successes([1.0, 2.0]) + misses([7.0])
        series = usm_time_series(records, NAIVE, horizon=20.0)
        assert [t for t, _ in series] == [0.0, 5.0, 10.0, 15.0]
        assert series[0][1] == pytest.approx(1.0)
        assert series[1][1] == pytest.approx(0.0)
        assert series[2][1] is None  # idle, not zero
        assert series[3][1] is None

    def test_late_finishers_land_in_the_last_bucket(self):
        series = usm_time_series(
            successes([25.0]), NAIVE, horizon=20.0
        )
        assert series[-1][1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            usm_time_series([], NAIVE, horizon=-5.0)
        with pytest.raises(ValueError):
            usm_time_series([], NAIVE, horizon=0.0)


class TestDegradationMetrics:
    def test_dip_and_clean_recovery(self):
        # Healthy until t=40 (all successes), a dip during the fault,
        # healthy again from t=60 on.
        records = (
            successes([t + 0.5 for t in range(0, 40, 2)])
            + misses([42.0, 47.0, 52.0, 57.0])
            + successes([62.0, 67.0, 72.0, 77.0, 82.0, 87.0])
        )
        out = degradation_metrics(
            records, NAIVE, scenario(), horizon=90.0
        )
        window = out["windows"][0]
        assert window["label"] == "server-slowdown-0"
        assert window["baseline_usm"] == pytest.approx(1.0)
        assert window["dip_depth"] == pytest.approx(1.0)
        assert window["min_usm"] == pytest.approx(0.0)
        assert window["time_below"] == pytest.approx(20.0)  # 4 bad buckets
        # First in-band bucket at/after the fault end is t=60.
        assert window["recovery_time"] == pytest.approx(0.0)

    def test_delayed_recovery_is_measured_from_fault_end(self):
        records = (
            successes([t + 0.5 for t in range(0, 40, 2)])
            + misses([42.0, 47.0, 52.0, 57.0, 62.0, 67.0])  # overhang to t=70
            + successes([72.0, 77.0, 82.0, 87.0])
        )
        out = degradation_metrics(
            records, NAIVE, scenario(), horizon=90.0
        )
        window = out["windows"][0]
        # In-band again from the t=70 bucket; the fault ended at 60.
        assert window["recovery_time"] == pytest.approx(10.0)
        assert window["time_below"] == pytest.approx(30.0)

    def test_never_recovering_reports_none(self):
        records = successes([t + 0.5 for t in range(0, 40, 2)]) + misses(
            [45.0, 55.0, 65.0, 75.0, 85.0]
        )
        out = degradation_metrics(
            records, NAIVE, scenario(), horizon=90.0
        )
        assert out["windows"][0]["recovery_time"] is None

    def test_single_inband_bucket_does_not_count_as_settled(self):
        # One good bucket sandwiched between bad ones must not satisfy
        # the settle requirement (SETTLE_BUCKETS = 2).
        records = (
            successes([t + 0.5 for t in range(0, 40, 2)])
            + misses([45.0, 55.0, 65.0])
            + successes([72.0])  # lone good bucket
            + misses([77.0, 82.0, 87.0])
        )
        out = degradation_metrics(
            records, NAIVE, scenario(), horizon=90.0
        )
        assert out["windows"][0]["recovery_time"] is None

    def test_empty_buckets_do_not_break_a_recovery_streak(self):
        records = (
            successes([t + 0.5 for t in range(0, 40, 2)])
            + misses([45.0])
            + successes([62.0])  # in band ...
            # ... nothing in [65, 85) ...
            + successes([87.0])  # ... still in band: settled
        )
        out = degradation_metrics(
            records, NAIVE, scenario(), horizon=90.0
        )
        assert out["windows"][0]["recovery_time"] == pytest.approx(0.0)

    def test_band_defaults_to_fraction_of_usm_range(self):
        records = successes([1.0])
        out = degradation_metrics(records, NAIVE, scenario(), horizon=90.0)
        assert out["band"] == pytest.approx(0.05 * NAIVE.usm_range)

    def test_payload_shape(self):
        out = degradation_metrics(
            successes([1.0]), NAIVE, scenario(), horizon=20.0
        )
        assert out["scenario"] == "s"
        assert len(out["usm_series"]) == 4
        assert set(out["usm_series"][0]) == {"t", "usm"}
