"""Tests for the 2PL-HP lock manager."""

import collections
import itertools

import pytest
from hypothesis import given, strategies as st

from repro.db import locks
from repro.db.locks import LockManager, LockMode, LockStatus, LockWaitError
from repro.db.transactions import QueryTransaction, UpdateTransaction
from repro.experiments.config import POLICIES, SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.scenarios import canned
from repro.fleet.runner import FleetConfig, run_fleet
from repro.sim.engine import SimulationError


def query(txn_id, deadline=10.0):
    return QueryTransaction(
        txn_id=txn_id,
        arrival=0.0,
        exec_time=0.1,
        items=(0,),
        relative_deadline=deadline,
    )


def update(txn_id, item_id=0, period=1.0):
    return UpdateTransaction(
        txn_id=txn_id, arrival=0.0, exec_time=0.1, item_id=item_id, period=period
    )


class TestBasicGrants:
    def test_read_read_compatible(self):
        locks = LockManager()
        q1, q2 = query(1), query(2)
        assert locks.request(q1, 0, LockMode.READ).status is LockStatus.GRANTED
        assert locks.request(q2, 0, LockMode.READ).status is LockStatus.GRANTED
        assert locks.holds(q1, 0) and locks.holds(q2, 0)

    def test_reacquire_is_noop_grant(self):
        locks = LockManager()
        q = query(1)
        locks.request(q, 0, LockMode.READ)
        assert locks.request(q, 0, LockMode.READ).status is LockStatus.GRANTED

    def test_write_held_covers_read_request(self):
        locks = LockManager()
        u = update(1)
        locks.request(u, 0, LockMode.WRITE)
        assert locks.request(u, 0, LockMode.READ).status is LockStatus.GRANTED


class TestHighPriorityRule:
    def test_update_aborts_lower_priority_reader(self):
        """2PL-HP: the higher-priority writer names the reader as victim."""
        locks = LockManager()
        q = query(1)
        u = update(2)
        locks.request(q, 0, LockMode.READ)
        result = locks.request(u, 0, LockMode.WRITE)
        assert result.status is LockStatus.CONFLICT
        assert result.victims == (q,)

    def test_retry_after_victim_release_grants(self):
        locks = LockManager()
        q = query(1)
        u = update(2)
        locks.request(q, 0, LockMode.READ)
        locks.request(u, 0, LockMode.WRITE)  # conflict
        locks.release_all(q)  # server aborts the victim
        assert locks.request(u, 0, LockMode.WRITE).status is LockStatus.GRANTED

    def test_outranked_request_raises_lock_wait_error(self):
        """The wait branch of 2PL-HP is an error: it names the requester,
        the outranking holder and the item, and leaves the table as it
        was."""
        locks = LockManager()
        u = update(1)
        q = query(2)
        locks.request(u, 0, LockMode.WRITE)
        with pytest.raises(LockWaitError) as caught:
            locks.request(q, 0, LockMode.READ)
        error = caught.value
        assert isinstance(error, SimulationError)
        assert (error.requester, error.holder, error.item_id) == (q, u, 0)
        assert "txn 2" in str(error) and "txn 1" in str(error) and "item 0" in str(error)
        assert locks.holders_of(0) == [(1, LockMode.WRITE)]
        assert locks.held_items(q) == set()
        assert locks.held_items(u) == {0}

    def test_one_outranking_holder_raises_before_any_victim(self):
        """A conflict with lower- and higher-priority holders at once
        raises; the lower-priority holder is not named a victim and
        keeps its lock."""
        locks = LockManager()
        early = query(1, deadline=1.0)
        late = query(2, deadline=50.0)
        middle = query(3, deadline=10.0)
        locks.request(early, 0, LockMode.READ)
        locks.request(late, 0, LockMode.READ)
        with pytest.raises(LockWaitError) as caught:
            locks.request(middle, 0, LockMode.WRITE)
        assert caught.value.holder is early
        assert locks.holders_of(0) == [(1, LockMode.READ), (2, LockMode.READ)]
        assert locks.held_items(middle) == set()


class TestRelease:
    def test_release_all_clears_every_item(self):
        locks = LockManager()
        q = QueryTransaction(
            txn_id=1, arrival=0.0, exec_time=0.1, items=(0, 1, 2), relative_deadline=5.0
        )
        for item_id in (0, 1, 2):
            locks.request(q, item_id, LockMode.READ)
        assert locks.held_items(q) == {0, 1, 2}
        locks.release_all(q)
        assert locks.held_items(q) == set()


class TestIntrospection:
    def test_holders_of(self):
        locks = LockManager()
        holder = update(1, period=0.5)
        locks.request(holder, 0, LockMode.WRITE)
        assert locks.holders_of(0) == [(1, LockMode.WRITE)]
        assert locks.holders_of(99) == []
        locks.release_all(holder)
        assert locks.holders_of(0) == []


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=20))
def test_property_refusals_point_to_higher_priority(periods):
    """2PL-HP without a wait path: every request is granted, restarts
    lower-priority holders, or raises naming a holder that outranks the
    requester, so a refusal points up the priority order and leaves the
    holders untouched."""
    locks = LockManager()
    txns = [update(i + 1, period=float(p)) for i, p in enumerate(periods)]
    for txn in txns:
        while True:
            before = locks.holders_of(0)
            try:
                result = locks.request(txn, 0, LockMode.WRITE)
            except LockWaitError as error:
                assert error.requester is txn and error.item_id == 0
                assert error.holder.priority_key() < txn.priority_key()
                assert locks.holders_of(0) == before
                break
            if result.status is LockStatus.GRANTED:
                break
            for victim in result.victims:
                assert txn.priority_key() < victim.priority_key()
                locks.release_all(victim)
        assert len(locks.holders_of(0)) == 1


class TestServerNeverWaits:
    def test_simulated_runs_never_block(self, monkeypatch):
        """On the one CPU the requester is always the top-priority ready
        transaction, so every request is granted or preempts lower-priority
        holders, and none raises LockWaitError (see the module docstring
        of db/locks.py).  The grid covers every policy, two traces, 1- and
        3-item queries and two fault scenarios, plus one coordinated,
        replicated fleet whose coordinator issues modulation directives.
        Conflicts do occur, so the check is not vacuous."""
        statuses = collections.Counter()
        request = LockManager.request

        def counting(self, *args, **kwargs):
            try:
                result = request(self, *args, **kwargs)
            except LockWaitError:
                statuses["wait"] += 1
                raise
            statuses[result.status] += 1
            return result

        monkeypatch.setattr(locks.LockManager, "request", counting)
        smoke = SCALES["smoke"]
        for policy, trace, items, fault in itertools.product(
            POLICIES, ("high-unif", "med-neg"), (1, 3), (None, "update-storm", "pile-up")
        ):
            faults = None if fault is None else canned(fault, smoke.horizon, smoke.n_items)
            run_experiment(
                ExperimentConfig(
                    policy=policy,
                    update_trace=trace,
                    items_per_query=items,
                    seed=5,
                    scale=smoke,
                    faults=faults,
                )
            )
        fleet = run_fleet(
            FleetConfig(
                base=ExperimentConfig(
                    policy="unit",
                    update_trace="high-unif",
                    items_per_query=3,
                    seed=5,
                    scale=smoke,
                ),
                n_shards=4,
                replication=2,
                router_policy="freshness",
                coordinate=True,
            )
        )
        assert any(rebalance["modulate"] for rebalance in fleet.rebalances)
        assert statuses["wait"] == 0
        assert statuses[LockStatus.CONFLICT] > 0
        assert statuses[LockStatus.GRANTED] > 0
