"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending == 0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_priority_then_fifo_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("late"), priority=5)
    sim.schedule(1.0, lambda: fired.append("first"), priority=-1)
    sim.schedule(1.0, lambda: fired.append("second"), priority=-1)
    sim.run()
    assert fired == ["first", "second", "late"]


def test_schedule_after_uses_relative_delay():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: sim.schedule_after(2.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [7.0]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    token = sim.schedule_token(1.0, fired.append, "x")
    sim.schedule(2.0, lambda: fired.append("y"))
    sim.cancel_token(token)
    assert sim.pending == 1
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    token = sim.schedule_token(1.0, lambda _: None, None)
    sim.schedule(2.0, lambda: None)
    sim.cancel_token(token)
    sim.cancel_token(token)  # must not double-count the cancellation
    assert sim.pending == 1
    sim.run()
    assert sim.events_fired == 1
    assert sim.pending == 0


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    # The later event is still pending and fires on a subsequent run.
    sim.run()
    assert fired == [1, 10]


def test_event_at_exact_until_boundary_fires():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("edge"))
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_max_events_bounds_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_fired_counts_only_live_events():
    sim = Simulator()
    token = sim.schedule_token(1.0, lambda _: None, None)
    sim.schedule(2.0, lambda: None)
    sim.cancel_token(token)
    sim.run()
    assert sim.events_fired == 1


def test_events_scheduled_during_run_fire_in_order():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule_after(1.0, lambda: chain(n + 1))

    sim.schedule(0.0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def inner():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, inner)
    sim.run()
    assert len(errors) == 1


def test_pending_excludes_cancelled_immediately():
    sim = Simulator()
    token = sim.schedule_token(1.0, lambda _: None, None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.cancel_token(token)
    assert sim.pending == 1


def test_pending_decrements_as_events_fire():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.0)
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = []
    token = sim.schedule_token(1.0, fired.append, "first")
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert fired == ["first"]
    # The fired event's slot is recycled by the next schedule; the
    # stale token must cancel neither it nor corrupt the live count.
    sim.schedule_token(3.0, fired.append, "second")
    sim.cancel_token(token)
    assert sim.pending == 2
    sim.run()
    assert fired == ["first", "second"]
    assert sim.events_fired == 3
    assert sim.pending == 0


def test_fire_inline_refuses_past_until():
    sim = Simulator()
    results = []
    sim.schedule(1.0, lambda: results.extend(
        [sim.fire_inline(1.5, 0), sim.fire_inline(2.5, 0)]
    ))
    sim.run(until=2.0)
    assert results == [True, False]
    assert sim.now == 2.0
    assert sim.events_fired == 2


def test_fire_inline_yields_to_heap_entry_due_first():
    sim = Simulator()
    results = []
    sim.schedule(2.0, lambda: None, priority=0)
    sim.schedule(1.0, lambda: results.extend(
        [sim.fire_inline(2.0, 0), sim.fire_inline(2.0, -1)]
    ))
    sim.run()
    # An equal (time, priority) key loses to the heap entry, which was
    # scheduled first; a lower priority at the same time goes ahead.
    assert results == [False, True]
    assert sim.events_fired == 3


def test_max_events_caps_inline_fires():
    sim = Simulator()
    results = []

    def burst():
        at = 1.0
        while True:
            at += 0.1
            if not sim.fire_inline(at, 0):
                break
            results.append(at)

    sim.schedule(1.0, burst)
    sim.schedule(5.0, lambda: None)
    sim.run(max_events=3)
    assert len(results) == 2
    assert sim.events_fired == 3
    # The budget stopped the loop, so the clock stays at the last event.
    assert sim.now == results[-1]


def test_fire_inline_outside_run_is_unbounded():
    sim = Simulator()
    assert sim.fire_inline(3.0, 0)
    assert sim.now == 3.0 and sim.events_fired == 1
    with pytest.raises(SimulationError):
        sim.fire_inline(2.0, 0)


def test_peek_key_skips_cancelled():
    sim = Simulator()
    token = sim.schedule_token(1.0, lambda _: None, None, priority=-1)
    sim.schedule(2.0, lambda: None, priority=3)
    sim.cancel_token(token)
    assert sim.peek_key() == (2.0, 3)
    sim.run()
    assert sim.peek_key() is None


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_property_firing_order_is_sorted(times):
    """Whatever times are scheduled, callbacks observe a nondecreasing clock."""
    sim = Simulator()
    observed = []
    for t in times:
        sim.schedule(t, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_subset_never_fires(entries):
    sim = Simulator()
    fired = []
    cancelled_count = 0
    for index, (t, cancel) in enumerate(entries):
        token = sim.schedule_token(t, fired.append, index)
        if cancel:
            sim.cancel_token(token)
            cancelled_count += 1
    sim.run()
    assert len(fired) == len(entries) - cancelled_count
    assert not any(cancel for _, cancel in (entries[i] for i in fired))


def heap_size(sim):
    """Raw heap entry count, cancelled (lazily-deleted) entries included."""
    return len(sim._heap)


def test_compaction_inside_a_running_loop():
    """A callback whose cancellations trigger the compactor must leave
    the running loop on the live heap: later events still fire and no
    recycled slot fires a stale entry."""
    sim = Simulator()
    fired = []

    def churn():
        tokens = [
            sim.schedule_token(5.0, lambda _: fired.append("cancelled"), None)
            for _ in range(100)
        ]
        for token in tokens:
            sim.cancel_token(token)
        sim.schedule(2.0, lambda: fired.append("later"))

    sim.schedule(1.0, churn)
    sim.run()
    assert fired == ["later"]
    assert sim.pending == 0 and heap_size(sim) == 0


def test_heap_size_bounded_under_heavy_cancellation():
    """Cancel-heavy churn must not grow the raw heap without bound.

    Every admitted query cancels its deadline timer on commit, so a
    long run cancels most of what it schedules.  The compactor rebuilds
    the heap once cancelled entries pass a small floor and outnumber
    live ones, which bounds the raw heap (lazily-deleted entries
    included) at roughly twice ``pending`` plus the floor.
    """
    sim = Simulator()
    live_tokens = []
    keep = 50
    for i in range(20_000):
        live_tokens.append(sim.schedule_token(1.0 + i * 1e-3, lambda _: None, None))
        if len(live_tokens) > keep:
            sim.cancel_token(live_tokens.pop(0))
        # Compactor invariant: cancelled entries never exceed
        # max(live, floor), so the raw heap stays O(pending).
        assert heap_size(sim) <= 2 * sim.pending + 2 * 64
    assert sim.pending == keep
    assert heap_size(sim) <= 2 * keep + 2 * 64
    # The surviving events still fire, draining the queue.
    sim.run()
    assert sim.pending == 0
