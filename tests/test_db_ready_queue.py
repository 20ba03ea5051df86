"""Tests for the dual-priority EDF ready queue."""

import pytest
from hypothesis import given, strategies as st

from repro.db.ready_queue import ReadyQueue
from repro.db.transactions import QueryTransaction, UpdateTransaction


def query(txn_id, deadline, exec_time=0.1):
    return QueryTransaction(
        txn_id=txn_id,
        arrival=0.0,
        exec_time=exec_time,
        items=(0,),
        relative_deadline=deadline,
    )


def update(txn_id, period, exec_time=0.1):
    return UpdateTransaction(
        txn_id=txn_id, arrival=0.0, exec_time=exec_time, item_id=0, period=period
    )


def test_updates_pop_before_queries():
    rq = ReadyQueue()
    rq.push(query(1, deadline=0.01))  # most urgent query
    rq.push(update(2, period=1000.0))  # most relaxed update
    assert rq.pop().txn_id == 2


def test_edf_within_class():
    rq = ReadyQueue()
    rq.push(query(1, deadline=5.0))
    rq.push(query(2, deadline=1.0))
    rq.push(query(3, deadline=3.0))
    assert [rq.pop().txn_id for _ in range(3)] == [2, 3, 1]


def test_peek_does_not_remove():
    rq = ReadyQueue()
    rq.push(query(1, deadline=1.0))
    assert rq.peek().txn_id == 1
    assert len(rq) == 1


def test_pop_empty_returns_none():
    rq = ReadyQueue()
    assert rq.pop() is None
    assert rq.peek() is None


def test_duplicate_push_rejected():
    rq = ReadyQueue()
    q = query(1, deadline=1.0)
    rq.push(q)
    with pytest.raises(ValueError):
        rq.push(q)


def test_lazy_removal():
    rq = ReadyQueue()
    q1, q2 = query(1, deadline=1.0), query(2, deadline=2.0)
    rq.push(q1)
    rq.push(q2)
    rq.remove(q1)
    assert q1 not in rq
    assert rq.pop().txn_id == 2
    assert rq.pop() is None


def test_reinsertion_after_removal_allowed():
    rq = ReadyQueue()
    q = query(1, deadline=1.0)
    rq.push(q)
    rq.remove(q)
    rq.push(q)
    assert rq.pop().txn_id == 1


def test_backlog_accounting():
    rq = ReadyQueue()
    rq.push(update(1, period=1.0, exec_time=0.5))
    rq.push(update(2, period=2.0, exec_time=0.25))
    rq.push(query(3, deadline=1.0, exec_time=0.1))
    rq.push(query(4, deadline=5.0, exec_time=0.2))
    assert rq.update_backlog() == pytest.approx(0.75)
    assert rq.query_backlog_before(3.0) == pytest.approx(0.1)
    assert rq.query_backlog_before(100.0) == pytest.approx(0.3)


def test_compact_preserves_live_entries():
    rq = ReadyQueue()
    entries = [query(i, deadline=float(i)) for i in range(1, 8)]
    for entry in entries:
        rq.push(entry)
    for entry in entries[::2]:
        rq.remove(entry)
    popped = []
    while True:
        txn = rq.pop()
        if txn is None:
            break
        popped.append(txn.txn_id)
    assert popped == [2, 4, 6]


@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0.01, max_value=100)),
        min_size=1,
        max_size=40,
    )
)
def test_property_pop_order_is_priority_order(entries):
    rq = ReadyQueue()
    txns = []
    for index, (is_update, horizon) in enumerate(entries):
        if is_update:
            txn = update(index + 1, period=horizon)
        else:
            txn = query(index + 1, deadline=horizon)
        txns.append(txn)
        rq.push(txn)
    popped = []
    while True:
        txn = rq.pop()
        if txn is None:
            break
        popped.append(txn)
    assert len(popped) == len(txns)
    keys = [txn.priority_key() for txn in popped]
    assert keys == sorted(keys)


def test_repush_after_pop_counted_once():
    """A dispatched-then-preempted transaction re-enters under the same
    txn id; its old entry must not double-count in the backlogs."""
    rq = ReadyQueue()
    q = query(1, deadline=5.0, exec_time=0.25)
    rq.push(q)
    assert rq.pop() is q  # dispatched
    rq.push(q)  # preempted back into the queue
    assert len(rq.ready_queries()) == 1
    assert rq.query_backlog_before(float("inf")) == pytest.approx(0.25)
    probe = query(2, deadline=9.0)
    assert rq.query_backlog_ahead_of(probe) == pytest.approx(0.25)


def test_repush_after_remove_counted_once():
    """Same for abort-restart: remove then re-push must leave one entry."""
    rq = ReadyQueue()
    first = query(1, deadline=5.0, exec_time=0.25)
    later = query(2, deadline=7.0, exec_time=0.5)
    rq.push(first)
    rq.push(later)
    rq.remove(first)
    rq.push(first)
    assert len(rq.ready_queries()) == 2
    probe = query(3, deadline=9.0)
    assert rq.query_backlog_ahead_of(probe) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# randomized oracle: incremental aggregates vs from-scratch recompute
# ----------------------------------------------------------------------

def _assert_matches_oracle(rq, live, probe):
    """Every backlog read must equal an exact from-scratch recompute.

    ``math.fsum`` is exactly rounded and the queue's fixed-point sums
    convert with one correct rounding, so both sides round the same
    true sum — the comparison is ``==``, not approx.
    """
    import math

    updates = sorted(
        (t for t in live.values() if t.is_update),
        key=lambda t: (t.deadline, t.txn_id),
    )
    queries = sorted(
        (t for t in live.values() if not t.is_update),
        key=lambda t: (t.deadline, t.txn_id),
    )
    assert len(rq) == len(live)
    assert [t.txn_id for t in rq.ready_updates()] == [t.txn_id for t in updates]
    assert [t.txn_id for t in rq.ready_queries()] == [t.txn_id for t in queries]
    assert rq.update_backlog() == math.fsum(t.remaining for t in updates)
    assert rq.query_backlog() == math.fsum(t.remaining for t in queries)

    key = (probe.deadline, probe.txn_id)
    ahead = [t for t in queries if (t.deadline, t.txn_id) < key]
    after = [t for t in queries if (t.deadline, t.txn_id) > key]
    assert rq.query_backlog_before(probe.deadline) == math.fsum(
        t.remaining for t in queries if t.deadline < probe.deadline
    )
    assert rq.query_backlog_ahead_of(probe) == math.fsum(
        t.remaining for t in ahead
    )
    assert rq.backlog_ahead_of(probe) == math.fsum(
        [t.remaining for t in updates] + [t.remaining for t in ahead]
    )
    assert [t.txn_id for t in rq.queries_after(probe)] == [
        t.txn_id for t in after
    ]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6])
def test_incremental_backlogs_match_recompute_oracle(seed):
    """Replay a random push/remove/pop history; after every step each
    aggregate must equal the oracle recomputation over the live set."""
    import random

    rng = random.Random(seed)
    rq = ReadyQueue()
    live = {}
    gone = []  # removed or popped queries: un-queued probe material
    next_id = 1
    for _ in range(400):
        roll = rng.random()
        if roll < 0.55 or not live:
            exec_time = rng.uniform(0.001, 0.7)
            if rng.random() < 0.5:
                txn = query(next_id, deadline=rng.uniform(0.1, 8.0), exec_time=exec_time)
            else:
                txn = update(next_id, period=rng.uniform(0.1, 8.0), exec_time=exec_time)
            next_id += 1
            if rng.random() < 0.3:
                # A preempted/restarted transaction re-enters with its
                # remaining work below exec_time.
                txn.remaining = exec_time * rng.random()
            rq.push(txn)
            live[txn.txn_id] = txn
        elif roll < 0.8:
            victim = live.pop(rng.choice(sorted(live)))
            rq.remove(victim)
            if not victim.is_update:
                gone.append(victim)
        else:
            popped = rq.pop()
            assert popped is not None
            assert popped.txn_id == min(
                live,
                key=lambda i: (
                    not live[i].is_update,
                    live[i].deadline,
                    live[i].txn_id,
                ),
            )
            del live[popped.txn_id]
            if not popped.is_update:
                gone.append(popped)
        # Probe with a fresh (never-pushed) query and, when possible, a
        # queued one — both must see identical ordering semantics.
        _assert_matches_oracle(rq, live, query(next_id, deadline=rng.uniform(0.1, 8.0)))
        queued = [t for t in live.values() if not t.is_update]
        if queued:
            _assert_matches_oracle(rq, live, rng.choice(sorted(queued, key=lambda t: t.txn_id)))
            # Un-queued probe tying a queued entry's deadline exactly:
            # a not-yet-pushed query being sized up by the admission
            # controller.  Its backlog must count the tied entry when
            # the entry's txn_id sorts ahead and skip it otherwise —
            # and never count the probe itself.
            tied = rng.choice(sorted(queued, key=lambda t: t.txn_id))
            _assert_matches_oracle(
                rq, live, query(next_id + 1, deadline=tied.deadline)
            )
            _assert_matches_oracle(rq, live, query(0, deadline=tied.deadline))
        if gone:
            # A query that was queued earlier but has since been removed
            # or popped: probing with it must behave exactly like any
            # other un-queued probe (its stale key must not resurface).
            _assert_matches_oracle(rq, live, rng.choice(gone))
    assert next_id > 100  # the history actually exercised pushes
    assert gone  # the history actually exercised un-queued probes
