"""Tests for the global fleet coordinator."""

import pickle

import pytest

from repro.fleet.controller import Directive, EpochSummary, GlobalCoordinator
from repro.obs.trace import FLEET_REBALANCE, TraceRecorder


def summary(shard, dmf=0, dsf=0, rejected=0, success=10, time=20.0, c_flex=1.0):
    return EpochSummary(
        shard_id=shard,
        time=time,
        deltas={"success": success, "rejected": rejected, "dmf": dmf, "dsf": dsf},
        c_flex=c_flex,
    )


class TestSingleShardNeutrality:
    """The load-bearing property: one shard -> exact no-ops, always.

    The 1-shard fleet's digest identity with the single-server runner
    rests on the coordinator never touching a lone shard's knobs."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(),
            dict(dmf=5, dsf=3, rejected=4, success=1),
            dict(success=0),  # idle epoch
        ],
    )
    def test_lone_shard_gets_exact_noop(self, kwargs):
        coordinator = GlobalCoordinator()
        (directive,) = coordinator.plan([summary(0, **kwargs)])
        assert directive.flex_factor == 1.0
        assert directive.modulate is None
        assert directive.is_noop

    def test_identical_shards_all_noop(self):
        coordinator = GlobalCoordinator()
        directives = coordinator.plan([summary(0, dmf=2), summary(1, dmf=2)])
        assert all(d.is_noop for d in directives)


class TestRebalancing:
    def test_missing_shard_tightened_healthy_shard_untouched(self):
        coordinator = GlobalCoordinator()
        bad = summary(0, dmf=8, success=2)  # 80% miss
        good = summary(1, dmf=0, success=10)
        d_bad, d_good = coordinator.plan([bad, good])
        assert d_bad.flex_factor > 1.0  # admit less on the missing shard
        assert d_good.flex_factor < 1.0  # give slack back
        assert d_bad.modulate == "degrade"
        assert d_good.modulate == "upgrade"

    def test_rejecting_shard_relaxed(self):
        coordinator = GlobalCoordinator()
        rejecting = summary(0, rejected=8, success=2)
        other = summary(1, success=10)
        d_rej, d_other = coordinator.plan([rejecting, other])
        assert d_rej.flex_factor < 1.0  # over-rejecting: loosen admission
        assert d_other.flex_factor > 1.0
        # Misses are level, so neither shard gets a modulation nudge.
        assert d_rej.modulate is None
        assert d_other.modulate is None

    def test_factor_clamped(self):
        """The widest spread of ratios moves the factor by the 0.25
        gain times each excess, inside the [0.5, 2.0] clamp."""
        coordinator = GlobalCoordinator()
        d_bad, d_rej = coordinator.plan(
            [summary(0, dmf=10, success=0), summary(1, rejected=10, success=0)]
        )
        assert d_bad.flex_factor == 1.25  # 1 + 0.25 * 0.5 + 0.25 * 0.5
        assert d_rej.flex_factor == 0.75
        assert 0.5 <= d_rej.flex_factor <= d_bad.flex_factor <= 2.0

    def test_directives_sorted_by_shard(self):
        coordinator = GlobalCoordinator()
        directives = coordinator.plan(
            [summary(2, dmf=9), summary(0), summary(1, dmf=1)]
        )
        assert [d.shard_id for d in directives] == [0, 1, 2]

    def test_empty_plan(self):
        assert GlobalCoordinator().plan([]) == []


class TestObsAndValidation:
    def test_rebalance_events_only_for_non_noops(self):
        recorder = TraceRecorder()
        coordinator = GlobalCoordinator(recorder=recorder)
        coordinator.plan([summary(0, dmf=8, success=2), summary(1)])
        coordinator.plan([summary(0), summary(1)])  # identical -> no-ops
        events = [e for e in recorder.event_dicts() if e["kind"] == FLEET_REBALANCE]
        assert len(events) == 2  # the first plan's two directives only
        fields = events[0]
        assert fields["shard"] == 0
        assert fields["flex_factor"] > 1.0

    def test_summary_pickle_roundtrip(self):
        """A shard worker sends its EpochSummary over the pipe as is."""
        sent = EpochSummary(
            shard_id=3,
            time=40.0,
            deltas={"success": 5, "rejected": 1, "dmf": 2, "dsf": 0},
            c_flex=1.5,
        )
        received = pickle.loads(pickle.dumps(sent))
        assert received == sent
        assert received.miss_ratio == pytest.approx(2 / 8)
        assert received.reject_ratio == pytest.approx(1 / 8)

    def test_noop_predicate(self):
        assert Directive(shard_id=0).is_noop
        assert not Directive(shard_id=0, flex_factor=1.1).is_noop
        assert not Directive(shard_id=0, modulate="degrade").is_noop
