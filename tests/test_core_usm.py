"""Tests for the User Satisfaction Metric (paper Eqs. 2-5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.core.usm import (
    TABLE2_PROFILES,
    PenaltyProfile,
    UsmAccumulator,
    UsmWindow,
)
from repro.db.transactions import Outcome

OUTCOMES = list(Outcome)


class TestPenaltyProfile:
    def test_contributions_follow_eq3(self):
        profile = PenaltyProfile(c_r=0.5, c_fm=0.2, c_fs=0.1, gain=1.0)
        assert profile.contribution(Outcome.SUCCESS) == 1.0
        assert profile.contribution(Outcome.REJECTED) == -0.5
        assert profile.contribution(Outcome.DEADLINE_MISS) == -0.2
        assert profile.contribution(Outcome.DATA_STALE) == -0.1

    def test_usm_range(self):
        profile = PenaltyProfile(c_r=0.5, c_fm=2.0, c_fs=0.1)
        assert profile.usm_min == -2.0
        assert profile.usm_max == 1.0
        assert profile.usm_range == 3.0

    def test_naive_profile(self):
        naive = PenaltyProfile.naive()
        assert naive.is_naive
        assert naive.usm_min == 0.0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            PenaltyProfile(c_r=-1.0)

    def test_table2_has_six_settings(self):
        assert len(TABLE2_PROFILES) == 6
        lt1 = [p for k, p in TABLE2_PROFILES.items() if k.startswith("lt1")]
        gt1 = [p for k, p in TABLE2_PROFILES.items() if k.startswith("gt1")]
        assert all(max(p.c_r, p.c_fm, p.c_fs) < 1 for p in lt1)
        assert all(max(p.c_r, p.c_fm, p.c_fs) > 1 for p in gt1)

    def test_table2_dominant_weights(self):
        assert TABLE2_PROFILES["lt1-high-cr"].c_r > TABLE2_PROFILES["lt1-high-cr"].c_fm
        assert (
            TABLE2_PROFILES["gt1-high-cfs"].c_fs
            > TABLE2_PROFILES["gt1-high-cfs"].c_r
        )


class TestUsmAccumulator:
    def test_naive_usm_equals_success_ratio(self):
        acc = UsmAccumulator(PenaltyProfile.naive())
        for _ in range(3):
            acc.record(Outcome.SUCCESS)
        acc.record(Outcome.REJECTED)
        acc.record(Outcome.DEADLINE_MISS)
        assert acc.average_usm() == pytest.approx(0.6)

    def test_eq5_decomposition(self):
        profile = PenaltyProfile(c_r=0.5, c_fm=0.2, c_fs=0.1)
        acc = UsmAccumulator(profile)
        acc.record(Outcome.SUCCESS)
        acc.record(Outcome.REJECTED)
        acc.record(Outcome.DEADLINE_MISS)
        acc.record(Outcome.DATA_STALE)
        parts = acc.components()
        assert acc.average_usm() == pytest.approx(
            parts["S"] - parts["R"] - parts["F_m"] - parts["F_s"]
        )

    def test_empty_accumulator(self):
        acc = UsmAccumulator(PenaltyProfile.naive())
        assert acc.average_usm() == 0.0
        assert acc.total_usm() == 0.0

    def test_from_counts(self):
        profile = PenaltyProfile(c_r=1.0, c_fm=1.0, c_fs=1.0)
        acc = UsmAccumulator.from_counts(
            profile, {Outcome.SUCCESS: 4, Outcome.REJECTED: 1}
        )
        assert acc.total_queries == 5
        assert acc.average_usm() == pytest.approx((4 - 1) / 5)

    @given(
        st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=100),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
    )
    def test_property_average_usm_within_bounds(self, outcomes, c_r, c_fm, c_fs):
        profile = PenaltyProfile(c_r=c_r, c_fm=c_fm, c_fs=c_fs)
        acc = UsmAccumulator(profile)
        for outcome in outcomes:
            acc.record(outcome)
        usm = acc.average_usm()
        assert profile.usm_min - 1e-9 <= usm <= profile.usm_max + 1e-9

    @given(st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=100))
    def test_property_total_equals_sum_of_contributions(self, outcomes):
        """Eq. 4 (grouped sums) must equal Eq. 2 (per-query sum)."""
        profile = PenaltyProfile(c_r=0.3, c_fm=0.7, c_fs=1.3)
        acc = UsmAccumulator(profile)
        expected = 0.0
        for outcome in outcomes:
            acc.record(outcome)
            expected += profile.contribution(outcome)
        assert acc.total_usm() == pytest.approx(expected)

    def test_ratios_sum_to_one(self):
        acc = UsmAccumulator(PenaltyProfile.naive())
        for outcome in OUTCOMES:
            acc.record(outcome)
        assert sum(acc.ratios().values()) == pytest.approx(1.0)


class TestUsmWindow:
    def test_windowed_average(self):
        window = UsmWindow(PenaltyProfile(c_r=1.0, c_fm=1.0, c_fs=1.0), window=10.0)
        window.record(0.0, Outcome.REJECTED)  # will age out
        window.record(11.0, Outcome.SUCCESS)
        window.record(12.0, Outcome.SUCCESS)
        assert window.average_usm(20.0) == pytest.approx(1.0)

    def test_empty_window_returns_none(self):
        window = UsmWindow(PenaltyProfile.naive(), window=10.0)
        assert window.average_usm(100.0) is None

    def test_cost_components(self):
        profile = PenaltyProfile(c_r=0.5, c_fm=0.2, c_fs=0.1)
        window = UsmWindow(profile, window=100.0)
        window.record(1.0, Outcome.REJECTED)
        window.record(1.0, Outcome.SUCCESS)
        costs = window.cost_components(2.0)
        assert costs["R"] == pytest.approx(0.25)
        assert costs["F_m"] == 0.0

    def test_cost_components_add_each_weight_in_turn(self):
        window = UsmWindow(PenaltyProfile(c_r=0.1, c_fm=0.1, c_fs=0.1), window=100.0)
        for _ in range(10):
            window.record(1.0, Outcome.REJECTED)
        repeated = 0.0
        for _ in range(10):
            repeated += 0.1
        assert repeated != 10 * 0.1  # the two orders differ here
        assert window.cost_components(2.0)["R"] == repeated / 10

    def test_raw_failure_ratios(self):
        window = UsmWindow(PenaltyProfile.naive(), window=100.0)
        window.record(1.0, Outcome.DEADLINE_MISS)
        window.record(1.0, Outcome.SUCCESS)
        raw = window.raw_failure_ratios(2.0)
        assert raw["F_m"] == pytest.approx(0.5)
        assert raw["R"] == 0.0

    def test_counts_within_window(self):
        window = UsmWindow(PenaltyProfile.naive(), window=10.0)
        window.record(0.0, Outcome.SUCCESS)
        window.record(5.0, Outcome.SUCCESS)
        window.record(6.0, Outcome.REJECTED)
        assert window.counts(6.0) == {
            Outcome.SUCCESS: 2,
            Outcome.REJECTED: 1,
            Outcome.DEADLINE_MISS: 0,
            Outcome.DATA_STALE: 0,
        }

    def test_eviction(self):
        window = UsmWindow(PenaltyProfile.naive(), window=10.0)
        window.record(0.0, Outcome.SUCCESS)
        window.record(9.0, Outcome.DEADLINE_MISS)
        counts = window.counts(15.0)
        assert counts[Outcome.SUCCESS] == 0
        assert counts[Outcome.DEADLINE_MISS] == 1
        assert window.sample_size(25.0) == 0

    def test_event_at_the_cutoff_is_kept(self):
        window = UsmWindow(PenaltyProfile.naive(), window=10.0)
        window.record(0.0, Outcome.SUCCESS)
        assert window.sample_size(10.0) == 1  # 0.0 == now - window: kept
        assert window.sample_size(10.25) == 0  # strictly older: evicted

    def test_ratios(self):
        window = UsmWindow(PenaltyProfile.naive(), window=100.0)
        for _ in range(3):
            window.record(1.0, Outcome.DEADLINE_MISS)
        window.record(1.0, Outcome.SUCCESS)
        ratios = window.ratios(2.0)
        assert ratios[Outcome.DEADLINE_MISS] == 0.75
        assert ratios[Outcome.SUCCESS] == 0.25

    def test_empty_reads(self):
        window = UsmWindow(PenaltyProfile(c_r=0.1, c_fm=0.5, c_fs=0.1), window=10.0)
        window.record(0.0, Outcome.REJECTED)
        assert window.ratios(100.0) == {outcome: 0.0 for outcome in Outcome}
        assert window.counts(100.0) == {outcome: 0 for outcome in Outcome}
        assert window.cost_components(100.0) == {"R": 0.0, "F_m": 0.0, "F_s": 0.0}
        assert window.average_usm(100.0) is None

    def test_invalid_window(self):
        for width in (0.0, -1.0):
            with pytest.raises(ValueError):
                UsmWindow(PenaltyProfile.naive(), window=width)


#: Weights whose multiples are not all exact in binary (0.1, 0.3, ...)
#: alongside exact ones, so n * w and w added n times can differ.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 5.0]),
    st.floats(min_value=0.0, max_value=10.0),
)
PROFILES = st.builds(
    PenaltyProfile,
    c_r=WEIGHTS,
    c_fm=WEIGHTS,
    c_fs=WEIGHTS,
    gain=st.sampled_from([1.0, 0.3, 2.5]),
)
# Times and (most) widths are multiples of 0.25, so events land exactly
# on ``now - window`` often.
WIDTHS = st.one_of(
    st.integers(min_value=1, max_value=40).map(lambda k: k * 0.25),
    st.floats(min_value=0.01, max_value=20.0),
)
# (time step in quarter units, outcome to record or None for a read)
STEPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([None] + OUTCOMES)),
    min_size=20,
    max_size=400,
)

_COST_KEYS = {
    Outcome.REJECTED: "R",
    Outcome.DEADLINE_MISS: "F_m",
    Outcome.DATA_STALE: "F_s",
}


def _recompute(profile, retained):
    """Every UsmWindow read, from scratch over the retained outcomes in
    event order: a fixed-point sum of contributions and each event's
    cost weight added in turn."""
    total = len(retained)
    counts = {outcome: retained.count(outcome) for outcome in Outcome}
    costs = {"R": 0.0, "F_m": 0.0, "F_s": 0.0}
    weight = {"R": profile.c_r, "F_m": profile.c_fm, "F_s": profile.c_fs}
    fixed = 0
    for outcome in retained:
        fixed += fixed_from_float(profile.contribution(outcome))
        key = _COST_KEYS.get(outcome)
        if key is not None:
            costs[key] += weight[key]
    ratios = {
        outcome: (counts[outcome] / total if total else 0.0) for outcome in Outcome
    }
    return {
        "sample_size": total,
        "counts": counts,
        "ratios": ratios,
        "average_usm": float_from_fixed(fixed) / total if total else None,
        "cost_components": (
            {key: value / total for key, value in costs.items()} if total else costs
        ),
        "raw_failure_ratios": {
            "R": ratios[Outcome.REJECTED],
            "F_m": ratios[Outcome.DEADLINE_MISS],
            "F_s": ratios[Outcome.DATA_STALE],
        },
    }


class TestUsmWindowRecompute:
    @settings(deadline=None)
    @given(profile=PROFILES, width=WIDTHS, steps=STEPS)
    def test_every_read_equals_a_recompute(self, profile, width, steps):
        window = UsmWindow(profile, window=width)
        events = []
        now = 0.0
        for step, outcome in steps + [(0, None)]:
            now += step * 0.25
            if outcome is not None:
                window.record(now, outcome)
                events.append((now, outcome))
                continue
            retained = [o for t, o in events if t >= now - width]
            expected = _recompute(profile, retained)
            got = {name: getattr(window, name)(now) for name in expected}
            assert got == expected
            for name in ("average_usm", "cost_components"):
                # == would let 0.0 and -0.0 pass as equal; compare bits.
                assert repr(got[name]) == repr(expected[name])
