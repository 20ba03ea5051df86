"""Tests for Update Frequency Modulation (paper Section 3.4)."""

import random
from collections import Counter

import pytest

from repro.core.lottery import LotteryScheduler
from repro.core.modulation import UpdateFrequencyModulator
from repro.core.tickets import TicketBook
from repro.core.unit import UnitPolicy
from repro.db.items import DataItem, ItemTable
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import Substrate, run_experiment
from repro.faults.scenarios import canned
from repro.obs.config import ObsConfig
from repro.obs.trace import TraceRecorder
from repro.sim.engine import Simulator
from repro.workload.cache import get_workload


def make_modulator(n=4, escalate=False, max_stretch=100.0):
    items = ItemTable.uniform(n, ideal_period=10.0, update_exec_time=1.0)
    tickets = TicketBook(n)
    modulator = UpdateFrequencyModulator(
        items, tickets, random.Random(0), max_stretch=max_stretch
    )
    modulator.escalate = escalate
    return items, tickets, modulator


def victim_distribution(modulator):
    """Lottery weights normalized to probabilities; None at zero weight."""
    weights = modulator.tickets.lottery._weights
    total = sum(weights)
    if total <= 0:
        return None
    return [weight / total for weight in weights]


def is_degraded(item):
    """True while modulation holds ``pc_j`` above ``pi_j``."""
    return item.current_period > item.ideal_period


class TestDegrade:
    def test_no_tickets_no_victims(self):
        _, _, modulator = make_modulator()
        assert modulator.degrade(rounds=5) == []
        assert modulator.degrade_events == 0

    def test_degrade_stretches_victim_period_eq9(self):
        items, tickets, modulator = make_modulator()
        tickets.on_update(2, update_exec_time=1.0)
        victims = modulator.degrade(rounds=1)
        assert victims == [2]
        assert items[2].current_period == pytest.approx(11.0)
        assert modulator.degrade_events == 1

    def test_degrade_stretch_is_degrade_period(self):
        """The loop's inlined stretch gives Eq. 9's float, bit for bit."""
        items, tickets, modulator = make_modulator()
        tickets.on_update(1, update_exec_time=1.0)
        tickets.on_update(2, update_exec_time=2.0)
        reference = ItemTable.uniform(4, ideal_period=10.0, update_exec_time=1.0)
        for _ in range(20):
            for victim in modulator.degrade(rounds=2):
                reference.degrade(victim, modulator.c_du)
        assert [item.current_period.hex() for item in items.rows] == [
            item.current_period.hex() for item in reference.rows
        ]
        assert is_degraded(items[1]) and is_degraded(items[2])
        assert items.degraded_count() == 2 == reference.degraded_count()

    def test_degrade_respects_cap(self):
        items, tickets, modulator = make_modulator(max_stretch=2.0)
        tickets.on_update(0, update_exec_time=1.0)
        for _ in range(30):
            modulator.degrade(rounds=1)
        assert items[0].current_period <= 2.0 * items[0].ideal_period * 1.1

    def test_protected_items_not_picked(self):
        items, tickets, modulator = make_modulator()
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_query_access(1, cpu_utilization=0.5)  # negative ticket
        for _ in range(20):
            modulator.degrade(rounds=1)
        assert not is_degraded(items[1])

    def test_escalation_reaches_protected_items(self):
        items, tickets, modulator = make_modulator(escalate=True, max_stretch=1.5)
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_query_access(1, cpu_utilization=0.2)  # mildly protected
        tickets.on_query_access(2, cpu_utilization=2.0)  # strongly protected
        for _ in range(40):
            modulator.degrade(rounds=4)
        assert is_degraded(items[0])
        assert is_degraded(items[1])  # reached once the threshold walked down
        assert tickets.threshold < 0.0

    def test_without_escalation_threshold_stays_zero(self):
        items, tickets, modulator = make_modulator(escalate=False, max_stretch=1.5)
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_query_access(1, cpu_utilization=0.2)
        for _ in range(40):
            modulator.degrade(rounds=4)
        assert tickets.threshold == 0.0
        assert not is_degraded(items[1])

    def test_invalid_rounds(self):
        _, _, modulator = make_modulator()
        with pytest.raises(ValueError):
            modulator.degrade(rounds=0)

    def test_escalation_respects_floor(self):
        """Items with tickets below the escalation floor are never
        exposed no matter how long overload persists."""
        items, tickets, modulator = make_modulator(escalate=True, max_stretch=1.2)
        modulator.escalation_floor = -1.0
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_query_access(1, cpu_utilization=0.6)  # ticket -0.6 (exposable)
        for _ in range(5):
            tickets.on_query_access(2, cpu_utilization=0.6)  # far below floor
        for _ in range(60):
            modulator.degrade(rounds=4)
        assert tickets.threshold >= -1.0
        assert is_degraded(items[1])  # above the floor: eventually reached
        assert not is_degraded(items[2])  # below the floor: protected forever

    def test_relax_never_overshoots_zero(self):
        """Round-trip audit: however the threshold got down, raising it
        clamps at exactly 0.0 — a relax step larger than the remaining
        distance must not push tau positive (a positive tau would
        *exclude* every item from the lottery, inverting escalation)."""
        _, tickets, modulator = make_modulator(escalate=True)
        tickets.on_update(0, update_exec_time=1.0)
        for _ in range(3):
            tickets.on_query_access(1, cpu_utilization=0.6)  # ticket -1.8
        # Drive tau down to an awkward value no multiple of the step
        # lands on, then relax past it.
        tickets.lower_threshold(2.5 * modulator.threshold_step)
        assert tickets.threshold < 0.0
        seen = []
        for _ in range(5):
            modulator.relax_threshold()
            seen.append(tickets.threshold)
        assert all(value <= 0.0 for value in seen)
        assert seen[-1] == 0.0
        # And relaxing at exactly zero stays put (guard, not a cycle).
        modulator.relax_threshold()
        assert tickets.threshold == 0.0

    def test_threshold_round_trip_restores_lottery(self):
        """Escalate then fully relax: the lottery must price items
        exactly as before the excursion (threshold back to 0 shifts
        every weight back by the same amount it shifted down)."""
        _, tickets, modulator = make_modulator(escalate=True)
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_query_access(1, cpu_utilization=0.4)
        before = victim_distribution(modulator)
        tickets.lower_threshold(modulator.threshold_step)
        assert victim_distribution(modulator) != before  # excursion is real
        while tickets.threshold < 0.0:
            modulator.relax_threshold()
        assert tickets.threshold == 0.0
        assert victim_distribution(modulator) == before

    def test_relax_threshold_walks_back_to_zero(self):
        items, tickets, modulator = make_modulator(escalate=True, max_stretch=1.2)
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_query_access(1, cpu_utilization=0.3)
        for _ in range(20):
            modulator.degrade(rounds=2)
        assert tickets.threshold < 0.0
        for _ in range(10):
            modulator.relax_threshold()
        assert tickets.threshold == 0.0


class TestUpgrade:
    def test_upgrade_restores_periods_eq10(self):
        items, tickets, modulator = make_modulator()
        tickets.on_update(0, update_exec_time=1.0)
        modulator.degrade(rounds=1)  # period 11.0
        changed = modulator.upgrade_all()
        assert changed == 1
        assert items[0].current_period == pytest.approx(10.0)
        assert modulator.upgrade_events == 1

    def test_upgrade_noop_when_nothing_degraded(self):
        _, _, modulator = make_modulator()
        assert modulator.upgrade_all() == 0
        assert modulator.upgrade_events == 0

    def test_upgrade_relaxes_escalation_threshold(self):
        items, tickets, modulator = make_modulator(escalate=True, max_stretch=1.2)
        tickets.on_query_access(0, cpu_utilization=1.0)
        tickets.on_update(1, update_exec_time=1.0)
        for _ in range(30):
            modulator.degrade(rounds=2)
        assert tickets.threshold < 0.0
        before = tickets.threshold
        modulator.upgrade_all()
        assert tickets.threshold > before

    def test_deep_degradation_recovers_over_several_upgrades(self):
        items, tickets, modulator = make_modulator()
        tickets.on_update(0, update_exec_time=1.0)
        for _ in range(25):
            modulator.degrade(rounds=1)
        deep = items[0].current_period
        assert deep > 50.0
        upgrades = 0
        while is_degraded(items[0]) and upgrades < 100:
            modulator.upgrade_all()
            upgrades += 1
        assert 2 <= upgrades < 100  # gradual, not a one-shot wipe


class TestDiagnostics:
    def test_degraded_count(self):
        items, tickets, modulator = make_modulator()
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_update(1, update_exec_time=1.0)
        for _ in range(10):
            modulator.degrade(rounds=2)
        assert modulator.degraded_count() == len(items.degraded_items())

    def test_victim_distribution_normalized(self):
        _, tickets, modulator = make_modulator()
        assert victim_distribution(modulator) is None
        tickets.on_update(0, update_exec_time=1.0)
        tickets.on_update(1, update_exec_time=1.0)
        dist = victim_distribution(modulator)
        assert sum(dist) == pytest.approx(1.0)

    def test_size_mismatch_rejected(self):
        items = ItemTable.uniform(4, ideal_period=10.0, update_exec_time=1.0)
        with pytest.raises(ValueError):
            UpdateFrequencyModulator(items, TicketBook(3), random.Random(0))


@pytest.fixture
def counts(monkeypatch):
    """Count the modulator's draws, rebuilds and signals during a test."""
    counts = Counter()
    sample, rebuild = LotteryScheduler.sample, LotteryScheduler.rebuild
    degrade = UpdateFrequencyModulator.degrade
    upgrade_all = UpdateFrequencyModulator.upgrade_all

    def counted_sample(self, rng):
        counts["draws"] += 1
        return sample(self, rng)

    def counted_rebuild(self, weights):
        counts["rebuilds"] += 1
        return rebuild(self, weights)

    def counted_degrade(self, rounds=1):
        victims = degrade(self, rounds)
        counts["signals"] += 1
        counts["victims"] += len(victims)
        counts["degrades_changed"] += bool(victims)
        return victims

    def counted_upgrade_all(self):
        upgraded = upgrade_all(self)
        counts["upgrades"] += 1
        counts["upgraded"] += upgraded
        counts["upgrades_changed"] += upgraded > 0
        return upgraded

    monkeypatch.setattr(LotteryScheduler, "sample", counted_sample)
    monkeypatch.setattr(LotteryScheduler, "rebuild", counted_rebuild)
    monkeypatch.setattr(UpdateFrequencyModulator, "degrade", counted_degrade)
    monkeypatch.setattr(UpdateFrequencyModulator, "upgrade_all", counted_upgrade_all)
    return counts


def _observed_small_cell(trace):
    """A small UNIT cell with the whole trace kept, run through a
    ``Substrate`` so its final item table stays readable."""
    config = ExperimentConfig(
        policy="unit",
        update_trace=trace,
        seed=7,
        scale=SCALES["small"],
        obs=ObsConfig(keep_events=True, spans=False),
    )
    substrate = Substrate(config, *get_workload(config))
    report = substrate.finish()
    assert report.obs_summary["dropped"] == 0
    signals = [
        event for event in report.obs_events if event["kind"] == "modulation.change"
    ]
    return substrate, report, signals


class TestWorkCounts:
    """Exact update-modulator work per run, with zero slack: a cheaper
    draw must not come from drawing less."""

    @pytest.mark.parametrize(
        "trace, expected",
        [
            ("med-unif", (12_386, 6_639, 38, 282, 48)),
            ("high-unif", (13_388, 7_421, 38, 278, 63)),
        ],
    )
    def test_small_unit_cell(self, counts, trace, expected):
        run_experiment(
            ExperimentConfig(
                policy="unit", update_trace=trace, seed=7, scale=SCALES["small"]
            )
        )
        keys = ("draws", "victims", "rebuilds", "signals", "upgrades")
        assert tuple(counts[key] for key in keys) == expected


class TestSignalEvents:
    """One ``modulation.change`` event per Degrade/Upgrade signal that
    changed an item, carrying every item it changed."""

    @pytest.mark.parametrize(
        "trace, victims, upgraded",
        [("med-unif", 6_639, 4_476), ("high-unif", 7_421, 6_818)],
    )
    def test_one_event_per_signal(self, counts, trace, victims, upgraded):
        _, _, signals = _observed_small_cell(trace)
        by_direction = {"degrade": [], "upgrade": []}
        for event in signals:
            by_direction[event["direction"]].append(event["items"])
        for items in by_direction["degrade"] + by_direction["upgrade"]:
            assert type(items) is tuple and items
        assert len(by_direction["degrade"]) == counts["degrades_changed"]
        assert len(by_direction["upgrade"]) == counts["upgrades_changed"]
        total = {key: sum(map(len, value)) for key, value in by_direction.items()}
        assert total == {"degrade": victims, "upgrade": upgraded}
        assert (counts["victims"], counts["upgraded"]) == (victims, upgraded)

    def test_signal_that_changes_nothing_records_nothing(self):
        _, tickets, modulator = make_modulator()
        rec = TraceRecorder()
        modulator.bind_observer(rec, Simulator())
        assert modulator.degrade(rounds=3) == []
        assert modulator.upgrade_all() == 0
        assert len(rec) == 0
        tickets.on_update(2, update_exec_time=1.0)
        assert modulator.degrade(rounds=3) == [2, 2, 2]
        assert modulator.upgrade_all() == 1
        assert list(rec.events()) == [
            (0.0, "modulation.change", "degrade", (2, 2, 2)),
            (0.0, "modulation.change", "upgrade", (2,)),
        ]

    def test_replay_rebuilds_every_period(self):
        """The signals carry no periods, yet replaying them from the
        ideal periods with the modulator's own arithmetic rebuilds the
        run's final periods bit for bit."""
        substrate, _, signals = _observed_small_cell("med-unif")
        modulator = substrate.policy.modulator
        replay = ItemTable(
            [
                DataItem(item.item_id, item.ideal_period, item.update_exec_time)
                for item in substrate.items
            ]
        )
        for event in signals:
            if event["direction"] == "degrade":
                for item_id in event["items"]:
                    replay.degrade(item_id, modulator.c_du)
            else:
                upgraded = replay.upgrade_degraded(modulator.c_uu)
                assert tuple(item.item_id for item in upgraded) == event["items"]
        final = [item.current_period.hex() for item in substrate.items]
        assert [item.current_period.hex() for item in replay] == final
        assert substrate.items.degraded_count() > 0
        assert replay.degraded_count() == substrate.items.degraded_count()


class TestDegradedCountInvariant:
    """The table's maintained degraded count equals a recount after
    every control tick of a whole run (escalation on, the default)."""

    @pytest.mark.parametrize(
        "trace, fault",
        [("med-unif", None), ("high-unif", None), ("med-unif", "update-storm")],
    )
    def test_count_equals_recount_every_tick(self, monkeypatch, trace, fault):
        small = SCALES["small"]
        ticks = []
        control_tick = UnitPolicy._control_tick

        def checked_tick(self):
            control_tick(self)
            items = self.modulator.items
            assert items.degraded_count() == len(items.degraded_items())
            ticks.append((items.degraded_count(), self.tickets.threshold))

        monkeypatch.setattr(UnitPolicy, "_control_tick", checked_tick)
        report = run_experiment(
            ExperimentConfig(
                policy="unit",
                update_trace=trace,
                seed=7,
                scale=small,
                faults=None if fault is None else canned(fault, small.horizon, small.n_items),
            )
        )
        assert report.queries_submitted > 0
        assert len(ticks) > 100
        assert max(count for count, _ in ticks) > 0
        assert min(threshold for _, threshold in ticks) < 0.0  # escalated
