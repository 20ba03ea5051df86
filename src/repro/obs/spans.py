"""Query-lifecycle spans: per-query wait-state segmentation.

The trace stream (:mod:`repro.obs.trace`) records *point* events.  This
module folds them (:class:`SpanFold`, live as a recorder sink or
offline through :func:`build_spans`) into one **span** per query — the
full lifecycle
``admitted → queued → executing → (preempted)* → outcome``
— with every simulated instant between admission and outcome assigned
to exactly one wait state:

=================  ====================================================
``queued``         in the ready queue (EDF order, behind updates)
``refresh-wait``   parked while on-demand refreshes commit (ODU)
``executing``      on the CPU (including work later lost to restarts)
=================  ====================================================

A query never waits on a lock, so no state covers one: 2PL-HP here
only grants or restarts (:mod:`repro.db.locks`).

**Exactness contract.**  Segments are contiguous by construction
(each closes at the timestamp the next opens), so in the integer
fixed-point mirror (:mod:`repro.core.fixedpoint`, units of 2**-1074)
their durations telescope: the sum over a completed span equals
``fixed(end) − fixed(admit)`` *exactly* — not approximately, to the
ulp.  The builder converts each boundary instant of a span to fixed
point once, checks the invariant for every span it finalizes, and
keeps the exact per-state sums on the span
(:attr:`QuerySpan.wait_fixed`); they telescope to its exact
admit → end duration (:attr:`QuerySpan.duration_fixed`), so the
attribution layer reads exact totals without converting again.  A
:class:`Segment` is a ``(state, start, end)`` named tuple of floats;
its ``duration`` converts its two ends to give the same exact
difference.

**USM attribution.**  Each span names the Eq. 5 component its outcome
feeds (``S`` / ``R`` / ``F_m`` / ``F_s``) and a ``cause``: rejections
carry the admission controller's reason, deadline misses carry the
dominant wait state that consumed the slack (or ``service``), stale
reads carry ``stale-read``.  Fault windows overlapping a failed span
are listed so injected degradation is attributable.

Malformed streams (ring-buffer truncation, orphan outcomes, sched
events for unknown queries, a query whose events do not telescope) never
raise: the builder skips and counts (:attr:`SpanBuildResult.skipped`),
and marks the output *partial* when the recorder reports dropped events
or a query's segments do not telescope.

All timestamps are simulated time; this module never reads the wall
clock (simlint SF002 patrols it like any other simulation component).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.obs import trace as _trace

# Wait states (the ``state`` field of every segment).
STATE_QUEUED = "queued"
STATE_REFRESH_WAIT = "refresh-wait"
STATE_EXECUTING = "executing"

#: Segment states in presentation (and tie-break) order.
WAIT_STATES: Tuple[str, ...] = (
    STATE_QUEUED,
    STATE_REFRESH_WAIT,
    STATE_EXECUTING,
)

#: Bootstrap state between ``query.admit`` and the first scheduler
#: event.  Both fire at the same simulated instant, so this segment is
#: always zero-length and is dropped from the output.
_STATE_ADMITTED = "admitted"

# USM components (Eq. 5) a span's outcome feeds.
COMPONENT_BY_OUTCOME: Dict[str, str] = {
    "success": "S",
    "rejected": "R",
    "dmf": "F_m",
    "dsf": "F_s",
}

# Skip-counter categories (malformed / truncated streams).
SKIP_ORPHAN_OUTCOME = "orphan_outcome"  # non-rejection outcome, no admit
SKIP_ORPHAN_SCHED = "orphan_sched"  # sched.* for an unknown query
SKIP_DUPLICATE_ADMIT = "duplicate_admit"
SKIP_UNFINISHED = "unfinished"  # admitted, no outcome by stream end
# Segments do not telescope to end - admit: an event missing or out of
# time order (e.g. the first scheduler event after the admit instant).
SKIP_MALFORMED = "malformed"

SKIP_CATEGORIES: Tuple[str, ...] = (
    SKIP_ORPHAN_OUTCOME,
    SKIP_ORPHAN_SCHED,
    SKIP_DUPLICATE_ADMIT,
    SKIP_UNFINISHED,
    SKIP_MALFORMED,
)


class Segment(NamedTuple):
    """One contiguous wait-state interval of a span."""

    state: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Correctly-rounded float of the exact fixed-point duration."""
        return float_from_fixed(fixed_from_float(self.end) - fixed_from_float(self.start))

    def as_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "t0": self.start,
            "t1": self.end,
            "dur": self.duration,
        }

    def __repr__(self) -> str:
        return f"Segment({self.state!r}, {self.start:.6f}..{self.end:.6f})"


#: ``wait_fixed`` of a span that spent no time (a rejection span).
_NO_WAITS: Tuple[int, ...] = (0,) * len(WAIT_STATES)


class QuerySpan:
    """One query's complete lifecycle.

    ``admit`` is ``None`` for rejection spans (the query never entered
    the system; its span is the admission verdict alone).

    A paper-scale run keeps tens of thousands of spans alive until its
    report is built, so a span stores only plain values and tuples,
    which the garbage collector untracks: ``path``, the segments as
    one flat ``(state, end, state, end, …)`` tuple (the first segment
    starts at ``admit``, each later one where the previous ended);
    ``wait_fixed``, the exact fixed-point time spent in each of
    :data:`WAIT_STATES`, in that order.  ``segments``, ``waits`` and
    the durations are derived from them on read.
    """

    __slots__ = (
        "txn",
        "arrival",
        "admit",
        "end",
        "outcome",
        "deadline",
        "freshness",
        "restarts",
        "preemptions",
        "path",
        "wait_fixed",
        "usm_component",
        "cause",
        "faults",
        "shard",
    )

    def __init__(
        self,
        txn: int,
        arrival: Optional[float],
        admit: Optional[float],
        end: float,
        outcome: str,
        deadline: Optional[float],
        freshness: Optional[float],
        restarts: int,
        preemptions: int,
        path: Tuple[Union[str, float], ...],
        wait_fixed: Tuple[int, ...],
        usm_component: str,
        cause: Optional[str],
        faults: Tuple[str, ...],
        shard: Optional[int] = None,
    ) -> None:
        self.txn = txn
        self.arrival = arrival
        self.admit = admit
        self.end = end
        self.outcome = outcome
        self.deadline = deadline
        self.freshness = freshness
        self.restarts = restarts
        self.preemptions = preemptions
        self.path = path
        self.wait_fixed = wait_fixed
        self.usm_component = usm_component
        self.cause = cause
        self.faults = faults
        self.shard = shard

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The wait-state segments in time order."""
        path = self.path
        starts = (self.admit,) + path[1:-1:2]
        return tuple(map(Segment, path[0::2], starts, path[1::2]))  # type: ignore[arg-type]

    @property
    def waits(self) -> Dict[str, float]:
        """Total time per wait state the span spent time in."""
        return {
            state: float_from_fixed(fx)
            for state, fx in zip(WAIT_STATES, self.wait_fixed)
            if fx
        }

    @property
    def duration_fixed(self) -> int:
        """Exact admit → outcome time in fixed-point units (0 for
        rejection spans): the state totals telescope to it."""
        return sum(self.wait_fixed)

    @property
    def duration(self) -> float:
        """admit → outcome (0.0 for rejection spans)."""
        return float_from_fixed(self.duration_fixed)

    @property
    def slack(self) -> Optional[float]:
        """Deadline minus outcome time (negative: the deadline passed)."""
        if self.deadline is None:
            return None
        return self.deadline - self.end

    def as_dict(self) -> Dict[str, object]:
        """Flatten for the JSONL dump (keys sorted at dump time).

        The ``shard`` key only appears for fleet runs (label set) so
        single-server span dumps keep their historical digests."""
        out: Dict[str, object] = {
            "txn": self.txn,
            "arrival": self.arrival,
            "admit": self.admit,
            "end": self.end,
            "outcome": self.outcome,
            "deadline": self.deadline,
            "freshness": self.freshness,
            "restarts": self.restarts,
            "preemptions": self.preemptions,
            "segments": [seg.as_dict() for seg in self.segments],
            "waits": {
                state: float_from_fixed(fx)
                for state, fx in zip(WAIT_STATES, self.wait_fixed)
            },
            "usm_component": self.usm_component,
            "cause": self.cause,
            "faults": self.faults,
        }
        if self.shard is not None:
            out["shard"] = self.shard
        return out

    def __repr__(self) -> str:
        return (
            f"QuerySpan(txn={self.txn}, outcome={self.outcome!r}, "
            f"{len(self.path) // 2} segments)"
        )


class SpanBuildResult:
    """Output of :func:`build_spans` and :meth:`SpanFold.result`.

    Attributes:
        spans: Finalized spans in outcome order (the trace's own order);
            empty when the fold kept none (``SpanFold(keep=False)``).
        count: How many spans the fold finalized (``len(spans)`` when
            it kept them).
        skipped: Per-category counts of events/queries the builder had
            to skip (see the ``SKIP_*`` constants); all zero on a
            well-formed complete stream.
        dropped: Ring-buffer drop count from the trace header, if any.
        partial: True when the stream is known to be incomplete
            (``dropped > 0``, or a query skipped as malformed): spans
            may be missing and skip counts are expected to be non-zero.
    """

    __slots__ = ("spans", "count", "skipped", "dropped", "partial")

    def __init__(
        self,
        spans: List[QuerySpan],
        skipped: Dict[str, int],
        dropped: int,
        partial: bool,
        count: Optional[int] = None,
    ) -> None:
        self.spans = spans
        self.count = len(spans) if count is None else count
        self.skipped = skipped
        self.dropped = dropped
        self.partial = partial

    def summary(self) -> Dict[str, object]:
        return {
            "spans": self.count,
            "skipped": {k: v for k, v in sorted(self.skipped.items()) if v},
            "dropped": self.dropped,
            "partial": self.partial,
        }


class _OpenSpan:
    """Mutable per-query tracker while its span is still open.

    The span's events arrive in time order, so a one-instant memo
    (``mark``) converts each instant it sees to fixed point once; every
    boundary keeps its mirror (``*_fixed``) for the exact sums."""

    __slots__ = (
        "txn",
        "admit",
        "admit_fixed",
        "deadline",
        "state",
        "state_start",
        "state_start_fixed",
        "mark",
        "mark_fixed",
        "path",
        "wait_fixed",
        "preemptions",
    )

    def __init__(self, txn: int, admit: float, deadline: Optional[float]) -> None:
        admit_fixed = fixed_from_float(admit)
        self.txn = txn
        self.admit = admit
        self.admit_fixed = admit_fixed
        self.deadline = deadline
        self.state = _STATE_ADMITTED
        self.state_start = admit
        self.state_start_fixed = admit_fixed
        self.mark = admit
        self.mark_fixed = admit_fixed
        self.path: List[Union[str, float]] = []
        self.wait_fixed: Dict[str, int] = {}
        self.preemptions = 0

    def _fixed(self, now: float) -> int:
        if now != self.mark:
            self.mark = now
            self.mark_fixed = fixed_from_float(now)
        return self.mark_fixed

    def transition(self, now: float, new_state: str) -> None:
        """Close the current segment at ``now`` and enter ``new_state``."""
        self._close(now)
        self.state = new_state
        self.state_start = now

    def _close(self, now: float) -> None:
        # Zero-length segments (same-instant transitions) are dropped;
        # the telescoping sum is unaffected.
        start = self.state_start
        if now == start:
            return
        now_fixed = self._fixed(now)
        state = self.state
        if state is not _STATE_ADMITTED and now > start:
            self.path += (state, now)
            dur = now_fixed - self.state_start_fixed
            self.wait_fixed[state] = self.wait_fixed.get(state, 0) + dur
        self.state_start_fixed = now_fixed

    def finalize(self, now: float) -> Optional[Tuple[int, ...]]:
        """Close the span at ``now`` and return the exact per-state totals
        in :data:`WAIT_STATES` order, or None when they break the
        exactness contract (the span's events are malformed)."""
        self._close(now)
        if sum(self.wait_fixed.values()) != self._fixed(now) - self.admit_fixed:
            return None
        wait_fixed = self.wait_fixed
        return tuple([wait_fixed.get(state, 0) for state in WAIT_STATES])


def _failure_cause(wait_fixed: Mapping[str, int]) -> str:
    """Deterministic dominant-state attribution for a deadline miss.

    The state that consumed the most of the span (exact fixed-point
    compare, ties broken in :data:`WAIT_STATES` order).  ``executing``
    dominance reads as ``service`` — the query had the CPU but not
    enough of it.
    """
    best_state = STATE_QUEUED
    best = -1
    for state in WAIT_STATES:
        dur = wait_fixed.get(state, 0)
        if dur > best:
            best = dur
            best_state = state
    if best_state == STATE_EXECUTING:
        return "service"
    return f"wait:{best_state}"


EventLike = Union[Mapping[str, object], "_trace.TraceEvent"]


#: The kinds :class:`SpanFold` folds; it ignores every other kind, and
#: :func:`build_spans` skips them before a flattened dict is converted.
_SPAN_KINDS = frozenset(
    {
        _trace.QUERY_ADMIT,
        _trace.SCHED_ENQUEUE,
        _trace.SCHED_DISPATCH,
        _trace.SCHED_PARK,
        _trace.QUERY_OUTCOME,
        _trace.ADMISSION_DECISION,
        _trace.FAULT_START,
        _trace.FAULT_END,
        _trace.TRACE_META,
    }
)


def _iter_event_tuples(events: Iterable[EventLike]) -> Iterable["_trace.TraceEvent"]:
    """The event tuples of the kinds in :data:`_SPAN_KINDS`; a flattened
    dict (a JSONL line) is converted with :func:`~repro.obs.trace.from_dict`."""
    span_kinds = _SPAN_KINDS
    from_dict = _trace.from_dict
    for event in events:
        if isinstance(event, tuple):
            if event[1] in span_kinds:
                yield event
        elif event.get("kind") in span_kinds:
            yield from_dict(event)


#: What :class:`SpanFold` hands ``on_close`` for each finalized span:
#: ``(admit, end, deadline, wait_fixed, preemptions, restarts,
#: usm_component, cause)``, the fields the attribution layer folds
#: (:meth:`repro.obs.attrib.AttribAccumulator.add`).
SpanSink = Callable[
    [Optional[float], float, Optional[float], Tuple[int, ...], int, int, str, Optional[str]],
    None,
]


class SpanFold:
    """The span builder: one in-order fold over trace events.

    Two drivers feed it one event at a time through :meth:`observe`: a
    live :class:`~repro.obs.trace.TraceRecorder`, which hands it every
    event as it is recorded (so the spans are complete whatever the
    ring capacity), and :func:`build_spans`, which replays a recorded
    stream.

    Each finalized span goes to ``on_close`` (see :data:`SpanSink`)
    and, when ``keep`` is set, is built as a :class:`QuerySpan` and
    appended to :attr:`spans`; with ``keep`` off no span object is
    built at all.  ``shard`` labels the kept spans of a fleet shard.
    """

    __slots__ = (
        "spans",
        "on_close",
        "shard",
        "count",
        "skipped",
        "dropped",
        "_open",
        "_reject_reasons",
        "_fault_open",
        "_fault_windows",
    )

    def __init__(
        self,
        keep: bool = True,
        on_close: Optional[SpanSink] = None,
        shard: Optional[int] = None,
        dropped: int = 0,
    ) -> None:
        self.spans: Optional[List[QuerySpan]] = [] if keep else None
        self.on_close = on_close
        self.shard = shard
        self.count = 0
        self.skipped: Dict[str, int] = {category: 0 for category in SKIP_CATEGORIES}
        self.dropped = dropped
        self._open: Dict[int, _OpenSpan] = {}
        # txn -> admission rejection reason (attribution for R spans).
        self._reject_reasons: Dict[int, str] = {}
        # Fault windows: label -> start while open; (start, end, label)
        # once closed.
        self._fault_open: Dict[str, float] = {}
        self._fault_windows: List[Tuple[float, Optional[float], str]] = []

    def observe(self, event: "_trace.TraceEvent") -> None:
        """Fold one event (any kind; those outside :data:`_SPAN_KINDS`
        are ignored)."""
        kind = event[1]
        if kind not in _SPAN_KINDS:
            return
        now = event[0]
        open_spans = self._open
        skipped = self.skipped
        if kind == _trace.QUERY_ADMIT:
            _, _, txn, deadline, _ = event
            txn = int(txn)
            if txn in open_spans:
                skipped[SKIP_DUPLICATE_ADMIT] += 1
                return
            open_spans[txn] = _OpenSpan(
                txn,
                now,
                float(deadline) if isinstance(deadline, (int, float)) else None,
            )
        elif kind == _trace.SCHED_ENQUEUE:
            _, _, txn, cause = event
            span = open_spans.get(int(txn))
            if span is None:
                skipped[SKIP_ORPHAN_SCHED] += 1
                return
            if cause == _trace.ENQUEUE_PREEMPT:
                span.preemptions += 1
            span.transition(now, STATE_QUEUED)
        elif kind == _trace.SCHED_DISPATCH:
            _, _, txn = event
            span = open_spans.get(int(txn))
            if span is None:
                skipped[SKIP_ORPHAN_SCHED] += 1
                return
            span.transition(now, STATE_EXECUTING)
        elif kind == _trace.SCHED_PARK:
            _, _, txn = event
            span = open_spans.get(int(txn))
            if span is None:
                skipped[SKIP_ORPHAN_SCHED] += 1
                return
            span.transition(now, STATE_REFRESH_WAIT)
        elif kind == _trace.QUERY_OUTCOME:
            _, _, txn, outcome, arrival, _, freshness, restarts = event
            txn = int(txn)
            outcome = str(outcome)
            span = open_spans.pop(txn, None)
            if span is None:
                if outcome != "rejected":
                    skipped[SKIP_ORPHAN_OUTCOME] += 1
                    return
                # Rejection spans: no lifecycle, just the verdict.
                self._finalized(
                    txn, arrival, None, now, outcome, None, None, 0, 0, (),
                    _NO_WAITS, "R", self._reject_reasons.pop(txn, "admission"),
                )
                return
            wait_fixed = span.finalize(now)
            if wait_fixed is None:
                skipped[SKIP_MALFORMED] += 1
                return
            cause: Optional[str]
            if outcome == "success":
                cause = None
            elif outcome == "dmf":
                cause = _failure_cause(span.wait_fixed)
            elif outcome == "dsf":
                cause = "stale-read"
            else:
                cause = outcome
            self._finalized(
                txn,
                arrival,
                span.admit,
                now,
                outcome,
                span.deadline,
                freshness,
                int(restarts) if isinstance(restarts, (int, float)) else 0,
                span.preemptions,
                span.path,
                wait_fixed,
                COMPONENT_BY_OUTCOME.get(outcome, "S"),
                cause,
            )
        elif kind == _trace.ADMISSION_DECISION:
            _, _, txn, admitted, reason, _, _, _ = event
            if admitted is False and isinstance(reason, str) and reason:
                self._reject_reasons[int(txn)] = reason
        elif kind == _trace.FAULT_START:
            _, _, label, _, _ = event
            self._fault_open[str(label)] = now
        elif kind == _trace.FAULT_END:
            _, _, label, _ = event
            label = str(label)
            start = self._fault_open.pop(label, None)
            if start is not None:
                self._fault_windows.append((start, now, label))
        elif kind == _trace.TRACE_META:
            _, _, meta = event
            meta_dropped = meta.get("dropped")
            if isinstance(meta_dropped, int):
                self.dropped += meta_dropped

    def _finalized(
        self,
        txn: int,
        arrival: object,
        admit: Optional[float],
        end: float,
        outcome: str,
        deadline: Optional[float],
        freshness: object,
        restarts: int,
        preemptions: int,
        path: Sequence[Union[str, float]],
        wait_fixed: Tuple[int, ...],
        component: str,
        cause: Optional[str],
    ) -> None:
        """Hand one finalized span to ``on_close`` and, if kept, build it."""
        self.count += 1
        if self.on_close is not None:
            self.on_close(admit, end, deadline, wait_fixed, preemptions, restarts, component, cause)
        if self.spans is None:
            return
        faults: Tuple[str, ...] = ()
        if outcome != "success":
            faults = _overlapping_faults(self._fault_windows, self._fault_open, admit, end)
        self.spans.append(
            QuerySpan(
                txn=txn,
                arrival=float(arrival) if isinstance(arrival, (int, float)) else None,
                admit=admit,
                end=end,
                outcome=outcome,
                deadline=deadline,
                freshness=float(freshness) if isinstance(freshness, (int, float)) else None,
                restarts=restarts,
                preemptions=preemptions,
                path=tuple(path),
                wait_fixed=wait_fixed,
                usm_component=component,
                cause=cause,
                faults=faults,
                shard=self.shard,
            )
        )

    def result(self) -> SpanBuildResult:
        """The fold so far; a query still open counts as unfinished."""
        skipped = dict(self.skipped)
        skipped[SKIP_UNFINISHED] = len(self._open)
        return SpanBuildResult(
            spans=self.spans if self.spans is not None else [],
            skipped=skipped,
            dropped=self.dropped,
            partial=self.dropped > 0 or skipped[SKIP_MALFORMED] > 0,
            count=self.count,
        )


def build_spans(
    events: Iterable[EventLike],
    dropped: int = 0,
    shard: Optional[int] = None,
) -> SpanBuildResult:
    """Fold a recorded trace stream into per-query lifecycle spans.

    The offline driver of :class:`SpanFold` (the ``obs attrib`` CLI,
    JSONL replays, the tests).

    Args:
        events: Trace events in emit order — event tuples (e.g.
            ``recorder.events()``) or flattened dicts (e.g. parsed
            JSONL lines, converted once with
            :func:`~repro.obs.trace.from_dict`).  A leading
            ``trace.meta`` header contributes its ``dropped`` count.
        dropped: Ring-buffer drop count when the caller knows it
            out-of-band (e.g. from a live :class:`TraceRecorder`).
        shard: Fleet shard label stamped on every span (``None`` —
            the default — for single-server runs; the span dump then
            omits the key entirely, preserving historical digests).

    Returns:
        A :class:`SpanBuildResult`; never raises on malformed input.
    """
    fold = SpanFold(shard=shard, dropped=dropped)
    observe = fold.observe
    for event in _iter_event_tuples(events):
        observe(event)
    return fold.result()


def _overlapping_faults(
    closed: List[Tuple[float, Optional[float], str]],
    still_open: Dict[str, float],
    start: Optional[float],
    end: float,
) -> Tuple[str, ...]:
    """Labels of fault windows overlapping ``[start, end]`` (sorted)."""
    lo = start if start is not None else end
    labels = [
        label
        for w_start, w_end, label in closed
        if w_start <= end and (w_end is None or w_end >= lo)
    ]
    labels.extend(label for label, w_start in still_open.items() if w_start <= end)
    return tuple(sorted(set(labels)))


# ----------------------------------------------------------------------
# serialization (canonical, deterministic — mirrors export.py's JSONL)
# ----------------------------------------------------------------------


def _dump_line(payload: Mapping[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def render_spans_jsonl(result: SpanBuildResult) -> str:
    """Canonical JSONL: a header line, then one span per line."""
    header: Dict[str, object] = {"kind": "spans.meta"}
    header.update(result.summary())
    lines = [_dump_line(header)]
    lines.extend(_dump_line(span.as_dict()) for span in result.spans)
    return "\n".join(lines) + "\n"


def write_spans_jsonl(result: SpanBuildResult, path: Union[str, Path]) -> int:
    """Write the span JSONL dump; returns the number of spans."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_spans_jsonl(result), encoding="utf-8")
    return len(result.spans)

