"""Tests for the runtime fault driver and server service-rate control."""

import pytest

from repro.db.items import ItemTable
from repro.db.policy_api import ServerPolicy
from repro.db.server import Server, ServerConfig
from repro.db.transactions import QueryTransaction
from repro.faults import FaultScenario, HotspotShift, ServerSlowdown
from repro.faults.driver import FaultDriver
from repro.obs.trace import TraceRecorder
from repro.sim.engine import Simulator


class _Inert(ServerPolicy):
    def __init__(self):
        self.fault_calls = []

    def admit_query(self, query, server):
        return True

    def should_apply_update(self, item, server):
        return True

    def on_fault(self, label, active, server):
        self.fault_calls.append((server.now, label, active))


def make_server():
    sim = Simulator()
    items = ItemTable.uniform(4, ideal_period=100.0, update_exec_time=0.5)
    policy = _Inert()
    return sim, policy, Server(sim, items, policy, ServerConfig(), keep_records=True)


def submit(server, exec_time=1.0, deadline=100.0, at=0.0):
    query = QueryTransaction(
        txn_id=server.next_txn_id(),
        arrival=at,
        exec_time=exec_time,
        items=(0,),
        relative_deadline=deadline,
    )
    server.submit_query(query)
    return query


class TestSetServiceRate:
    def test_slowdown_stretches_completion(self):
        sim, _, server = make_server()
        sim.schedule(0.0, lambda: submit(server, exec_time=1.0))
        # Halve the rate at t=0.5: half the work is done, the other
        # half now takes 1.0s -> finish at 1.5.
        sim.schedule(0.5, lambda: server.set_service_rate(0.5))
        sim.run()
        record = server.records[0]
        assert record.finish_time == pytest.approx(1.5)
        assert record.outcome.name == "SUCCESS"

    def test_restore_rate_midway(self):
        sim, _, server = make_server()
        sim.schedule(0.0, lambda: submit(server, exec_time=1.0))
        sim.schedule(0.5, lambda: server.set_service_rate(0.5))
        sim.schedule(1.0, lambda: server.set_service_rate(1.0))
        # 0.5 work by t=0.5, plus 0.25 at half rate by t=1.0; the
        # remaining 0.25 at full rate -> finish at 1.25.
        sim.run()
        assert server.records[0].finish_time == pytest.approx(1.25)

    def test_busy_time_is_occupancy_not_work(self):
        sim, _, server = make_server()
        sim.schedule(0.0, lambda: submit(server, exec_time=1.0))
        sim.schedule(0.0, lambda: server.set_service_rate(0.5))
        sim.run()
        # The CPU was occupied for 2 sim-seconds even though only 1s of
        # work was retired.
        assert server.busy_time() == pytest.approx(2.0)

    def test_invalid_rate_rejected(self):
        _, _, server = make_server()
        with pytest.raises(ValueError):
            server.set_service_rate(0.0)
        with pytest.raises(ValueError):
            server.set_service_rate(-1.0)


class TestFaultDriver:
    def scenario(self):
        return FaultScenario(
            name="s",
            slowdowns=[ServerSlowdown(start=10.0, end=20.0, rate=0.5)],
            hotspot_shifts=[HotspotShift(at=15.0, rotation=1)],
        )

    def test_schedules_one_event_per_boundary(self):
        sim, _, server = make_server()
        driver = FaultDriver(self.scenario(), server)
        # Slowdown start+end, instantaneous shift start only.
        assert driver.install(sim) == 3

    def test_applies_and_reverts_the_slowdown(self):
        sim, _, server = make_server()
        driver = FaultDriver(self.scenario(), server)
        driver.install(sim)
        sim.schedule(12.0, lambda: rates.append(server._service_rate))
        sim.schedule(25.0, lambda: rates.append(server._service_rate))
        rates = []
        sim.run()
        assert rates == [0.5, 1.0]
        assert driver.starts_fired == 2
        assert driver.ends_fired == 2  # shift closes itself

    def test_overlapping_slowdowns_compose(self):
        scenario = FaultScenario(
            name="s",
            slowdowns=[
                ServerSlowdown(start=0.0, end=20.0, rate=0.5),
                ServerSlowdown(start=5.0, end=10.0, rate=0.5),
            ],
        )
        sim, _, server = make_server()
        FaultDriver(scenario, server).install(sim)
        observed = []
        for t in (1.0, 6.0, 12.0, 25.0):
            sim.schedule(t, lambda: observed.append(server._service_rate))
        sim.run()
        assert observed == [0.5, 0.25, 0.5, 1.0]

    def test_overlapping_slowdowns_ending_out_of_order(self):
        """Regression: the first-started window ends while the second is
        still open.  The restore must recompose the rate from the set of
        active faults — a pre-fault snapshot would wrongly restore 1.0
        at t=10 and 0.5 at t=20."""
        scenario = FaultScenario(
            name="s",
            slowdowns=[
                ServerSlowdown(start=0.0, end=10.0, rate=0.5),
                ServerSlowdown(start=5.0, end=20.0, rate=0.25),
            ],
        )
        sim, _, server = make_server()
        FaultDriver(scenario, server).install(sim)
        observed = []
        for t in (1.0, 6.0, 12.0, 25.0):
            sim.schedule(t, lambda: observed.append(server._service_rate))
        sim.run()
        assert observed == [0.5, 0.5 * 0.25, 0.25, 1.0]

    def test_recomposed_rate_is_history_independent(self):
        """With three overlapping windows the composed rate must be the
        canonical-order product of whatever set is active — identical
        whichever order windows happened to open or close in."""
        rates = (0.3, 0.7, 0.9)
        starts = (0.0, 2.0, 4.0)
        # First scenario: windows close in start order; second: reverse.
        ends_in_order = (10.0, 12.0, 14.0)
        ends_reversed = (14.0, 12.0, 10.0)
        observed = {}
        for label, ends in (("fifo", ends_in_order), ("lifo", ends_reversed)):
            scenario = FaultScenario(
                name=label,
                slowdowns=[
                    ServerSlowdown(start=s, end=e, rate=r)
                    for s, e, r in zip(starts, ends, rates)
                ],
            )
            sim, _, server = make_server()
            FaultDriver(scenario, server).install(sim)
            samples = []
            for t in (5.0, 20.0):
                sim.schedule(t, lambda: samples.append(server._service_rate))
            sim.run()
            observed[label] = samples
        # While all three are active the rate is the canonical-order
        # product regardless of open order; after all close it is 1.0.
        expected_all = (0.3 * 0.7) * 0.9  # (start, label) order
        assert observed["fifo"] == [expected_all, 1.0]
        assert observed["lifo"] == [expected_all, 1.0]

    def test_emits_paired_trace_markers(self):
        sim, _, server = make_server()
        rec = TraceRecorder()
        FaultDriver(self.scenario(), server, recorder=rec).install(sim)
        sim.run()
        events = [(e["kind"], e["label"]) for e in rec.event_dicts()]
        assert events == [
            ("fault.start", "server-slowdown-0"),
            ("fault.start", "hotspot-shift-0"),
            ("fault.end", "hotspot-shift-0"),
            ("fault.end", "server-slowdown-0"),
        ]
        start = next(e for e in rec.event_dicts() if e["kind"] == "fault.start")
        assert start["fault"] == "server-slowdown"
        assert start["rate"] == 0.5

    def test_policy_hook_sees_both_edges(self):
        sim, policy, server = make_server()
        FaultDriver(self.scenario(), server).install(sim)
        sim.run()
        assert policy.fault_calls == [
            (10.0, "server-slowdown-0", True),
            (15.0, "hotspot-shift-0", True),
            (15.0, "hotspot-shift-0", False),
            (20.0, "server-slowdown-0", False),
        ]

    def test_empty_scenario_schedules_nothing(self):
        sim, _, server = make_server()
        driver = FaultDriver(FaultScenario(name="none"), server)
        assert driver.install(sim) == 0
        sim.run()
        assert server._service_rate == 1.0
