"""Tests for the 2PL-HP lock manager."""

import collections
import itertools

from hypothesis import given, strategies as st

from repro.db import locks
from repro.db.locks import LockManager, LockMode, LockStatus
from repro.db.transactions import QueryTransaction, UpdateTransaction
from repro.experiments.config import POLICIES, SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.scenarios import canned


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

    def test_query_blocks_behind_higher_priority_writer(self):
        locks = LockManager()
        u = update(1)
        q = query(2)
        locks.request(u, 0, LockMode.WRITE)
        result = locks.request(q, 0, LockMode.READ)
        assert result.status is LockStatus.BLOCKED
        assert locks.is_waiting(q)
        assert locks.waited_item(q) == 0

    def test_update_blocks_behind_earlier_deadline_update(self):
        locks = LockManager()
        early = update(1, period=1.0)
        late = update(2, period=10.0)
        locks.request(early, 0, LockMode.WRITE)
        assert locks.request(late, 0, LockMode.WRITE).status is LockStatus.BLOCKED

    def test_no_barging_past_higher_priority_waiter(self):
        """A read must not sneak in front of a queued incompatible
        higher-priority write even when current holders are compatible."""
        locks = LockManager()
        holder = query(1, deadline=1.0)
        writer = update(2)
        late_reader = query(3, deadline=50.0)
        locks.request(holder, 0, LockMode.READ)
        # Writer conflicts with holder and... holder is lower priority, so
        # writer gets CONFLICT; make holder higher priority instead:
        locks2 = LockManager()
        hot_update = update(10, period=0.5)  # holds the write lock
        locks2.request(hot_update, 0, LockMode.WRITE)
        queued_update = update(11, period=1.0)
        assert locks2.request(queued_update, 0, LockMode.WRITE).status is LockStatus.BLOCKED
        reader = query(12)
        assert locks2.request(reader, 0, LockMode.READ).status is LockStatus.BLOCKED


class TestRelease:
    def test_release_grants_waiters_in_priority_order(self):
        locks = LockManager()
        holder = update(1, period=0.5)
        locks.request(holder, 0, LockMode.WRITE)
        w_late = update(3, period=10.0)
        w_early = update(2, period=1.0)
        locks.request(w_late, 0, LockMode.WRITE)
        locks.request(w_early, 0, LockMode.WRITE)
        granted = locks.release_all(holder)
        assert granted == [w_early]  # only the first compatible batch

    def test_release_grants_read_batch(self):
        locks = LockManager()
        holder = update(1, period=0.5)
        locks.request(holder, 0, LockMode.WRITE)
        r1, r2 = query(2), query(3)
        locks.request(r1, 0, LockMode.READ)
        locks.request(r2, 0, LockMode.READ)
        granted = locks.release_all(holder)
        assert set(t.txn_id for t in granted) == {2, 3}

    def test_cancel_wait_removes_from_queue(self):
        locks = LockManager()
        holder = update(1, period=0.5)
        waiter = query(2)
        locks.request(holder, 0, LockMode.WRITE)
        locks.request(waiter, 0, LockMode.READ)
        locks.cancel_wait(waiter)
        assert not locks.is_waiting(waiter)
        assert locks.release_all(holder) == []

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
    def test_holders_and_waiters(self):
        locks = LockManager()
        holder = update(1, period=0.5)
        waiter = update(2, period=1.0)
        locks.request(holder, 0, LockMode.WRITE)
        locks.request(waiter, 0, LockMode.WRITE)
        assert locks.holders_of(0) == [(1, LockMode.WRITE)]
        assert locks.waiters_of(0) == [2]
        assert locks.holders_of(99) == []


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=20))
def test_property_wait_edges_point_to_higher_priority(periods):
    """2PL-HP invariant: every waiter is outranked by some holder or by
    an earlier-queued waiter — wait-for edges always point up the
    priority order, so no deadlock cycle can form."""
    locks = LockManager()
    txns = {i + 1: update(i + 1, period=float(p)) for i, p in enumerate(periods)}
    for txn in txns.values():
        while True:
            result = locks.request(txn, 0, LockMode.WRITE)
            if result.status is not LockStatus.CONFLICT:
                break
            for victim in result.victims:
                locks.release_all(victim)  # promotions tracked by the manager

    holder_keys = [txns[tid].priority_key() for tid, _ in locks.holders_of(0)]
    waiter_ids = locks.waiters_of(0)
    for position, waiter_id in enumerate(waiter_ids):
        waiter_key = txns[waiter_id].priority_key()
        outranked_by_holder = any(key < waiter_key for key in holder_keys)
        outranked_by_earlier_waiter = any(
            txns[other].priority_key() < waiter_key
            for other in waiter_ids[:position]
        )
        assert outranked_by_holder or outranked_by_earlier_waiter


class TestServerNeverWaits:
    def test_simulated_runs_never_block(self, monkeypatch):
        """On the one CPU the requester is always the top-priority ready
        transaction, so every request is granted or preempts lower-priority
        holders, and none waits (see the module docstring of db/locks.py).
        Conflicts do occur in this grid, so the check is not vacuous."""
        statuses = collections.Counter()
        request = LockManager.request

        def counting(self, *args, **kwargs):
            result = request(self, *args, **kwargs)
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
        assert statuses[LockStatus.BLOCKED] == 0
        assert statuses[LockStatus.CONFLICT] > 0
        assert statuses[LockStatus.GRANTED] > 0
