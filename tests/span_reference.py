"""The span builder and attribution as they were before the builder
kept exact per-span sums: the draw-for-draw reference the current
builder is checked against (``tests/test_obs_span_reference.py``).

Every conversion here goes through ``fixed_from_float`` again where the
old code did: per segment close, per finalize, per ``wait_breakdown``
segment and per ``QuerySpan.duration`` read.  Input-shape handling
(``_iter_event_tuples``), the result container and the percentile
rows are shared with the current code; the USM-loss ledger is the loop
the attribution layer had before it folded spans one at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.fixedpoint import fixed_from_float, float_from_fixed
from repro.core.usm import PenaltyProfile
from repro.db.transactions import Outcome
from repro.obs import trace as _trace
from repro.obs.attrib import _percentile_row
from repro.obs.spans import (
    COMPONENT_BY_OUTCOME,
    SKIP_CATEGORIES,
    SKIP_DUPLICATE_ADMIT,
    SKIP_ORPHAN_OUTCOME,
    SKIP_ORPHAN_SCHED,
    SKIP_UNFINISHED,
    STATE_EXECUTING,
    STATE_QUEUED,
    STATE_REFRESH_WAIT,
    WAIT_STATES,
    _STATE_ADMITTED,
    EventLike,
    SpanBuildResult,
    _iter_event_tuples,
)


class Segment:
    """One contiguous wait-state interval of a span."""

    __slots__ = ("state", "start", "end")

    def __init__(self, state: str, start: float, end: float) -> None:
        self.state = state
        self.start = start
        self.end = end

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


class QuerySpan:
    """One query's complete lifecycle.

    ``admit`` is ``None`` for rejection spans (the query never entered
    the system; its span is the admission verdict alone).  ``waits``
    maps every wait state to its exact total (floats of fixed-point
    sums).
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
        "segments",
        "waits",
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
        segments: List[Segment],
        waits: Dict[str, float],
        usm_component: str,
        cause: Optional[str],
        faults: List[str],
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
        self.segments = segments
        self.waits = waits
        self.usm_component = usm_component
        self.cause = cause
        self.faults = faults
        self.shard = shard

    @property
    def duration(self) -> float:
        """admit → outcome (0.0 for rejection spans)."""
        if self.admit is None:
            return 0.0
        return float_from_fixed(
            fixed_from_float(self.end) - fixed_from_float(self.admit)
        )

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
            "waits": {state: self.waits.get(state, 0.0) for state in WAIT_STATES},
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
            f"{len(self.segments)} segments)"
        )


class _OpenSpan:
    """Mutable per-query tracker while its span is still open."""

    __slots__ = (
        "txn",
        "admit",
        "deadline",
        "state",
        "state_start",
        "segments",
        "wait_fixed",
        "preemptions",
    )

    def __init__(self, txn: int, admit: float, deadline: Optional[float]) -> None:
        self.txn = txn
        self.admit = admit
        self.deadline = deadline
        self.state = _STATE_ADMITTED
        self.state_start = admit
        self.segments: List[Segment] = []
        self.wait_fixed: Dict[str, int] = {}
        self.preemptions = 0

    def transition(self, now: float, new_state: str) -> None:
        """Close the current segment at ``now`` and enter ``new_state``."""
        self._close(now)
        self.state = new_state
        self.state_start = now

    def _close(self, now: float) -> None:
        state = self.state
        start = self.state_start
        if state is not _STATE_ADMITTED and now > start:
            self.segments.append(Segment(state, start, now))
            dur = fixed_from_float(now) - fixed_from_float(start)
            self.wait_fixed[state] = self.wait_fixed.get(state, 0) + dur
        elif state is not _STATE_ADMITTED and now == start:
            # Zero-length segments (same-instant transitions) are
            # dropped; the telescoping sum is unaffected.
            pass

    def finalize(self, now: float) -> Tuple[List[Segment], Dict[str, float]]:
        """Close the span at ``now`` and verify the exactness contract."""
        self._close(now)
        total = sum(self.wait_fixed.values())
        expected = fixed_from_float(now) - fixed_from_float(self.admit)
        if total != expected:  # pragma: no cover - invariant by construction
            raise AssertionError(
                f"span {self.txn}: segment sum {total} != duration {expected} "
                "(fixed-point units)"
            )
        waits = {state: float_from_fixed(fx) for state, fx in self.wait_fixed.items()}
        return self.segments, waits


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


def build_spans(
    events: Iterable[EventLike],
    dropped: int = 0,
    shard: Optional[int] = None,
) -> SpanBuildResult:
    """Fold a trace stream into per-query lifecycle spans.

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
    open_spans: Dict[int, _OpenSpan] = {}
    spans: List[QuerySpan] = []
    skipped: Dict[str, int] = {category: 0 for category in SKIP_CATEGORIES}
    # txn -> admission rejection reason (attribution for R spans).
    reject_reasons: Dict[int, str] = {}
    # Fault windows: label -> (start, end-or-None, fault type).
    fault_open: Dict[str, float] = {}
    fault_windows: List[Tuple[float, Optional[float], str]] = []
    total_dropped = dropped

    for event in _iter_event_tuples(events):
        now = event[0]
        kind = event[1]
        if kind == _trace.QUERY_ADMIT:
            _, _, txn, deadline, _ = event
            txn = int(txn)
            if txn in open_spans:
                skipped[SKIP_DUPLICATE_ADMIT] += 1
                continue
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
                continue
            if cause == _trace.ENQUEUE_PREEMPT:
                span.preemptions += 1
            span.transition(now, STATE_QUEUED)
        elif kind == _trace.SCHED_DISPATCH:
            _, _, txn = event
            span = open_spans.get(int(txn))
            if span is None:
                skipped[SKIP_ORPHAN_SCHED] += 1
                continue
            span.transition(now, STATE_EXECUTING)
        elif kind == _trace.SCHED_PARK:
            _, _, txn = event
            span = open_spans.get(int(txn))
            if span is None:
                skipped[SKIP_ORPHAN_SCHED] += 1
                continue
            span.transition(now, STATE_REFRESH_WAIT)
        elif kind == _trace.QUERY_OUTCOME:
            _, _, txn, outcome, arrival, _, freshness, restarts = event
            txn = int(txn)
            outcome = str(outcome)
            span = open_spans.pop(txn, None)
            if span is None:
                if outcome != "rejected":
                    skipped[SKIP_ORPHAN_OUTCOME] += 1
                    continue
                # Rejection spans: no lifecycle, just the verdict.
                spans.append(
                    QuerySpan(
                        txn=txn,
                        arrival=float(arrival) if isinstance(arrival, (int, float)) else None,
                        admit=None,
                        end=now,
                        outcome=outcome,
                        deadline=None,
                        freshness=None,
                        restarts=0,
                        preemptions=0,
                        segments=[],
                        waits={},
                        usm_component="R",
                        cause=reject_reasons.pop(txn, "admission"),
                        faults=_overlapping_faults(fault_windows, fault_open, now, now),
                        shard=shard,
                    )
                )
                continue
            segments, waits = span.finalize(now)
            component = COMPONENT_BY_OUTCOME.get(outcome, "S")
            cause: Optional[str]
            if outcome == "success":
                cause = None
            elif outcome == "dmf":
                cause = _failure_cause(span.wait_fixed)
            elif outcome == "dsf":
                cause = "stale-read"
            else:
                cause = outcome
            faults: List[str] = []
            if outcome != "success":
                faults = _overlapping_faults(
                    fault_windows, fault_open, span.admit, now
                )
            spans.append(
                QuerySpan(
                    txn=txn,
                    arrival=float(arrival) if isinstance(arrival, (int, float)) else None,
                    admit=span.admit,
                    end=now,
                    outcome=outcome,
                    deadline=span.deadline,
                    freshness=float(freshness) if isinstance(freshness, (int, float)) else None,
                    restarts=int(restarts) if isinstance(restarts, (int, float)) else 0,
                    preemptions=span.preemptions,
                    segments=segments,
                    waits=waits,
                    usm_component=component,
                    cause=cause,
                    faults=faults,
                    shard=shard,
                )
            )
        elif kind == _trace.ADMISSION_DECISION:
            _, _, txn, admitted, reason, _, _, _ = event
            if admitted is False and isinstance(reason, str) and reason:
                reject_reasons[int(txn)] = reason
        elif kind == _trace.FAULT_START:
            _, _, label, _, _ = event
            fault_open[str(label)] = now
        elif kind == _trace.FAULT_END:
            _, _, label, _ = event
            label = str(label)
            start = fault_open.pop(label, None)
            if start is not None:
                fault_windows.append((start, now, label))
        elif kind == _trace.TRACE_META:
            _, _, meta = event
            meta_dropped = meta.get("dropped")
            if isinstance(meta_dropped, int):
                total_dropped += meta_dropped

    skipped[SKIP_UNFINISHED] = len(open_spans)
    return SpanBuildResult(
        spans=spans,
        skipped=skipped,
        dropped=total_dropped,
        partial=total_dropped > 0,
    )


def _overlapping_faults(
    closed: List[Tuple[float, Optional[float], str]],
    still_open: Dict[str, float],
    start: Optional[float],
    end: float,
) -> List[str]:
    """Labels of fault windows overlapping ``[start, end]`` (sorted)."""
    lo = start if start is not None else end
    labels = [
        label
        for w_start, w_end, label in closed
        if w_start <= end and (w_end is None or w_end >= lo)
    ]
    labels.extend(label for label, w_start in still_open.items() if w_start <= end)
    return sorted(set(labels))


def latency_slack_percentiles(
    spans: Iterable[QuerySpan],
) -> Dict[str, Dict[str, Optional[float]]]:
    """Latency and deadline-slack percentile rows over completed spans.

    Rejection spans (no lifecycle) are excluded; slack is
    ``deadline − outcome_time`` (negative means the deadline passed —
    only deadline misses land there under firm deadlines).
    """
    latencies: List[float] = []
    slacks: List[float] = []
    for span in spans:
        if span.admit is None:
            continue
        latencies.append(span.duration)
        slack = span.slack
        if slack is not None:
            slacks.append(slack)
    return {
        "latency": _percentile_row(latencies),
        "slack": _percentile_row(slacks),
    }


def wait_breakdown(spans: Iterable[QuerySpan]) -> Dict[str, object]:
    """Where the lifecycle time of a span set went, by wait state.

    Totals are exact fixed-point sums over every segment (converted to
    floats once at the end); ``share`` is each state's fraction of the
    total spanned time.  Also counts preemptions, restarts, and the
    spans themselves (rejections separately — they carry no time).
    """
    totals_fixed: Dict[str, int] = {state: 0 for state in WAIT_STATES}
    completed = 0
    rejected = 0
    preemptions = 0
    restarts = 0
    for span in spans:
        if span.admit is None:
            rejected += 1
            continue
        completed += 1
        preemptions += span.preemptions
        restarts += span.restarts
        for segment in span.segments:
            dur = fixed_from_float(segment.end) - fixed_from_float(segment.start)
            totals_fixed[segment.state] = totals_fixed.get(segment.state, 0) + dur
    grand = sum(totals_fixed.values())
    totals = {state: float_from_fixed(fx) for state, fx in totals_fixed.items()}
    shares = {
        state: (fx / grand if grand else 0.0) for state, fx in totals_fixed.items()
    }
    return {
        "totals": totals,
        "shares": shares,
        "completed": completed,
        "rejected": rejected,
        "preemptions": preemptions,
        "restarts": restarts,
    }


def usm_loss_ledger(
    spans: Iterable[QuerySpan],
    profile: PenaltyProfile,
) -> Dict[str, object]:
    """The Eq. 5 decomposition attributed span by span.

    For each component (``S`` / ``R`` / ``F_m`` / ``F_s``): the span
    count, the outcome ratio, the component value (gain for S, loss
    otherwise — computed with the same ``count / total * weight``
    order as :meth:`UsmAccumulator.components`, so a complete span set
    reconciles float-for-float with the report), and the per-cause
    span counts (admission reasons for R, dominant wait states for
    F_m, ``stale-read`` for F_s).
    """
    weights = {
        "S": profile.gain,
        "R": profile.c_r,
        "F_m": profile.c_fm,
        "F_s": profile.c_fs,
    }
    counts: Dict[str, int] = {component: 0 for component in weights}
    causes: Dict[str, Dict[str, int]] = {component: {} for component in weights}
    total = 0
    for span in spans:
        total += 1
        component = span.usm_component
        counts[component] = counts.get(component, 0) + 1
        if span.cause is not None:
            bucket = causes.setdefault(component, {})
            bucket[span.cause] = bucket.get(span.cause, 0) + 1
    components: Dict[str, float] = {}
    ratios: Dict[str, float] = {}
    for component, weight in weights.items():
        ratio = counts[component] / total if total else 0.0
        ratios[component] = ratio
        components[component] = ratio * weight
    # Mirror UsmAccumulator.average_usm exactly: sum the per-outcome
    # contributions (gain positive, penalties negative) in Outcome
    # order, then divide once — NOT S − R − F_m − F_s over the
    # components, which rounds differently in the last ulp.
    contributions = {
        "S": profile.contribution(Outcome.SUCCESS),
        "R": profile.contribution(Outcome.REJECTED),
        "F_m": profile.contribution(Outcome.DEADLINE_MISS),
        "F_s": profile.contribution(Outcome.DATA_STALE),
    }
    usm = (
        sum(contributions[c] * counts[c] for c in weights) / total
        if total
        else 0.0
    )
    return {
        "total": total,
        "counts": counts,
        "ratios": ratios,
        "components": components,
        "causes": {
            component: dict(sorted(bucket.items()))
            for component, bucket in causes.items()
        },
        "usm": usm,
        "profile": profile.describe(),
    }


def attrib_report(
    spans: Sequence[QuerySpan],
    profile: PenaltyProfile,
) -> Dict[str, object]:
    """One run's full attribution: breakdown + percentiles + ledger."""
    return {
        "waits": wait_breakdown(spans),
        "percentiles": latency_slack_percentiles(spans),
        "ledger": usm_loss_ledger(spans, profile),
    }
