"""The discrete-event simulation loop.

:class:`Simulator` owns the virtual clock and a binary-heap event
queue.  Callers schedule callbacks at absolute times or after delays.
An event that may need cancelling is scheduled with
:meth:`Simulator.schedule_token`, whose packed ``int`` token is the
engine's one cancellation handle (:meth:`Simulator.cancel_token`); the
engine uses lazy deletion, so cancellation is O(1).

Storage is a *slotted event arena*: the heap holds ``(time, priority,
seq, slot)`` tuples (compared natively in C; ``seq`` is unique, so the
``slot`` payload is never compared) while the callback, its optional
argument, and the pending/cancelled flag live in parallel arrays
indexed by ``slot``.  Fired and cancelled slots return to a free list
and are reused, so steady-state event churn allocates nothing beyond
the heap tuple itself; a per-slot generation counter makes stale
tokens (for a slot that has since been recycled) harmless.

Lazy deletion is bounded: when cancelled entries exceed half the heap
(and a small floor), the heap is rebuilt without them, so workloads
that cancel most of their timers — e.g. every admitted query cancels
its deadline timer on commit — cannot grow the heap without bound.

The engine is deliberately minimal: it has no notion of processes or
resources.  The preemptive CPU model lives in
:mod:`repro.db.server`, built from plain and token-scheduled events.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

_HeapEntry = Tuple[float, int, int, int]

#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG: Any = object()

#: Token layout: ``(generation << _SLOT_BITS) | slot``.  Slot indices
#: are bounded by the peak number of concurrently pending events, so
#: 2**40 slots is unreachable in any physical run.
_SLOT_BITS = 40
_SLOT_MASK = (1 << _SLOT_BITS) - 1

#: Rebuild the heap when cancelled entries pass this floor *and* make
#: up more than half of it (amortized O(1) per cancellation).
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised on invalid use of the engine (e.g. scheduling in the past)."""


class Simulator:
    """A single-threaded discrete-event simulator.

    Example::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("hello at t=1"))
        sim.run()

    ``now`` is exposed as a plain attribute (reads are on every hot
    path); treat it as read-only — only the engine advances the clock.
    """

    def __init__(self) -> None:
        #: Current simulated time in seconds.  Read-only for callers.
        self.now = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._fired = 0
        self._live = 0
        self._cancelled = 0
        self._running = False
        # The active run's bounds (see :meth:`run`); unbounded outside one.
        self._until = math.inf
        self._stop_fired = math.inf
        # The arena: parallel per-slot storage.
        self._cb: List[Optional[Callable[..., Any]]] = []
        self._arg: List[Any] = []
        self._gen: List[int] = []
        self._flag = bytearray()  # 0 = pending, 1 = cancelled
        self._free: List[int] = []

    @property
    def pending(self) -> int:
        """Number of live events still awaiting their firing time
        (cancelled events are excluded the moment they are cancelled)."""
        return self._live

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------

    def _alloc(self, callback: Callable[..., Any], arg: Any) -> int:
        free = self._free
        if free:
            slot = free.pop()
            self._cb[slot] = callback
            self._arg[slot] = arg
            self._flag[slot] = 0
        else:
            slot = len(self._cb)
            self._cb.append(callback)
            self._arg.append(arg)
            self._gen.append(0)
            self._flag.append(0)
        return slot

    def _release(self, slot: int) -> None:
        """Recycle a slot whose heap entry has been popped."""
        self._gen[slot] += 1
        self._cb[slot] = None
        self._arg[slot] = None
        self._flag[slot] = 0
        self._free.append(slot)

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries, recycling their slots.

        In place: a running :meth:`run` loop holds the heap list itself.
        """
        heap = self._heap
        flag = self._flag
        kept: List[_HeapEntry] = []
        for entry in heap:
            slot = entry[3]
            if flag[slot]:
                self._release(slot)
            else:
                kept.append(entry)
        heap[:] = kept
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        at: float,
        callback: Callable[[], Any],
        priority: int = 0,
    ) -> None:
        """Schedule ``callback`` at absolute time ``at``.

        The event cannot be cancelled; use :meth:`schedule_token` for
        one that may need to be.

        Args:
            at: Absolute simulated time; must not precede the clock.
            callback: Zero-argument callable.
            priority: Tie-break rank for same-instant events (lower first).

        Raises:
            SimulationError: If ``at`` is in the simulated past.
        """
        if at < self.now:
            raise SimulationError(
                f"cannot schedule event at t={at:.6f} before now={self.now:.6f}"
            )
        slot = self._alloc(callback, _NO_ARG)
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(self._heap, (at, priority, seq, slot))
        self._live += 1

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
    ) -> None:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.schedule(self.now + delay, callback, priority=priority)

    def schedule_token(
        self,
        at: float,
        callback: Callable[[Any], Any],
        arg: Any,
        priority: int = 0,
    ) -> int:
        """Schedule ``callback(arg)`` and return a packed cancel token.

        The cancellable, closure-free flavour of :meth:`schedule`: the
        argument rides in the arena and the returned ``int`` token
        cancels via :meth:`cancel_token`.  Stale tokens (event already
        fired or cancelled) are harmless.
        """
        if at < self.now:
            raise SimulationError(
                f"cannot schedule event at t={at:.6f} before now={self.now:.6f}"
            )
        # _alloc inlined: schedule_token is the engine's hottest entry.
        free = self._free
        if free:
            slot = free.pop()
            self._cb[slot] = callback
            self._arg[slot] = arg
            self._flag[slot] = 0
        else:
            slot = len(self._cb)
            self._cb.append(callback)
            self._arg.append(arg)
            self._gen.append(0)
            self._flag.append(0)
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(self._heap, (at, priority, seq, slot))
        self._live += 1
        return (self._gen[slot] << _SLOT_BITS) | slot

    def cancel_token(self, token: int) -> None:
        """Lazily cancel the event behind a :meth:`schedule_token` token.

        Idempotent; a no-op once the event fired or its slot was
        recycled (the token's generation no longer matches).
        """
        slot = token & _SLOT_MASK
        if self._gen[slot] != token >> _SLOT_BITS or self._flag[slot]:
            return
        self._flag[slot] = 1
        self._cb[slot] = None
        self._arg[slot] = None
        self._live -= 1
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled >= _COMPACT_MIN_CANCELLED and cancelled * 2 > len(self._heap):
            self._compact()

    def schedule_batch(
        self,
        entries: Sequence[Tuple[float, int, Callable[..., Any], Any]],
    ) -> None:
        """Schedule many ``(at, priority, callback, arg)`` events at once.

        Sequence numbers are assigned in list order (so equal
        ``(at, priority)`` entries fire in list order) and the heap is
        restored with one :func:`heapq.heapify` instead of per-event
        sifts — the cheap way to feed a chunk of trace arrivals.  Every
        batch entry carries an explicit argument (``callback(arg)``).
        """
        now = self.now
        heap = self._heap
        seq = self._seq
        alloc = self._alloc
        for at, priority, callback, arg in entries:
            if at < now:
                raise SimulationError(
                    f"cannot schedule event at t={at:.6f} before now={now:.6f}"
                )
            seq += 1
            heap.append((at, priority, seq, alloc(callback, arg)))
        self._seq = seq
        heapq.heapify(heap)
        self._live += len(entries)

    # ------------------------------------------------------------------
    # inspection / inline advancement
    # ------------------------------------------------------------------

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, priority)`` of the next live event, or None when drained."""
        self._drop_cancelled()
        if not self._heap:
            return None
        head = self._heap[0]
        return (head[0], head[1])

    def fire_inline(self, at: float, priority: int) -> bool:
        """Fire one event at ``(at, priority)`` outside the heap, if it may.

        It may when the heap event it would have been fires no earlier
        than it would in the loop: no live heap entry is due at or
        before ``(at, priority)``, ``at`` is within the active run's
        ``until``, and the run's ``max_events`` budget has room.  Then
        the clock and the fired counter advance exactly as if that
        event had popped, and the call returns True; otherwise nothing
        changes and the caller schedules the event instead.  The
        server's batched update application is the intended user.
        """
        if at < self.now:
            raise SimulationError(
                f"cannot fire inline at t={at:.6f} before now={self.now:.6f}"
            )
        if at > self._until or self._fired >= self._stop_fired:
            return False
        heap = self._heap
        if heap and self._flag[heap[0][3]]:
            self._drop_cancelled()
        if heap:
            due = heap[0][0]
            if due < at or (due == at and heap[0][1] <= priority):
                return False
        self.now = at
        self._fired += 1
        return True

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the loop until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        Both bounds cover the events a callback fires inline (see
        :meth:`fire_inline`).  Events scheduled exactly at ``until``
        still fire; unless the ``max_events`` budget stopped the loop,
        the clock is then advanced to ``until`` so post-run bookkeeping
        sees the full horizon.

        Returns:
            The simulated time when the loop stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        horizon = math.inf if until is None else until
        # On self, not in locals: fire_inline honours them too.
        self._until = horizon
        stop = math.inf if max_events is None else self._fired + max_events
        self._stop_fired = stop
        heap = self._heap
        pop = heapq.heappop
        flag = self._flag
        cbs = self._cb
        args = self._arg
        gens = self._gen
        free_slot = self._free.append
        no_arg = _NO_ARG
        try:
            while heap:
                if self._fired >= stop:
                    break
                head = heap[0]
                slot = head[3]
                if flag[slot]:
                    pop(heap)
                    self._cancelled -= 1
                    self._release(slot)
                    continue
                time = head[0]
                if time > horizon:
                    break
                pop(heap)
                self.now = time
                self._fired += 1
                self._live -= 1
                callback = cbs[slot]
                arg = args[slot]
                # _release inlined (the hottest line in the loop); the
                # pending flag is already 0 for a fired event.
                gens[slot] += 1
                cbs[slot] = None
                args[slot] = None
                free_slot(slot)
                if arg is no_arg:
                    callback()  # type: ignore[misc]
                else:
                    callback(arg)  # type: ignore[misc]
        finally:
            self._running = False
            self._until = math.inf
            self._stop_fired = math.inf
        if until is not None and self.now < until and self._fired < stop:
            self.now = until
        return self.now

    def _drop_cancelled(self) -> None:
        heap = self._heap
        flag = self._flag
        while heap and flag[heap[0][3]]:
            slot = heapq.heappop(heap)[3]
            self._cancelled -= 1
            self._release(slot)
