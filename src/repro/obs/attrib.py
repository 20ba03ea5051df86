"""Wait-time attribution and the USM-loss ledger.

The analysis layer over :mod:`repro.obs.spans`: given one run's spans
it answers *where the deadline slack went* (queue wait vs refresh
wait vs service) and *which Eq. 5 component lost USM points to
which cause*.  One :class:`AttribAccumulator` folds the spans one at a
time: an observed run feeds it live from its
:class:`~repro.obs.spans.SpanFold`, and :func:`attrib_report` folds a
span list (the ``obs attrib`` CLI).

**Reconciliation contract.**  :func:`usm_loss_ledger` applies a
:class:`~repro.core.usm.PenaltyProfile` to span outcome counts with the
*identical* operation order as
:meth:`repro.core.usm.UsmAccumulator.components` (``count / total``
then ``* weight``), so for a complete span set the ledger's component
values equal the report's ``components`` dict float-for-float — an
exact cross-check between the span pipeline and the USM accounting,
asserted in tests.

Everything here is pure: no wall clock, no I/O, no randomness —
deterministic output for a deterministic span sequence.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.fixedpoint import float_from_fixed
from repro.core.usm import PenaltyProfile
from repro.db.transactions import Outcome
from repro.obs.spans import WAIT_STATES, QuerySpan

#: The Eq. 5 components, in ledger order.
_COMPONENTS: Tuple[str, ...] = ("S", "R", "F_m", "F_s")

#: The percentiles every table reports.
PERCENTILES: Tuple[float, ...] = (0.50, 0.90, 0.99)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an ascending sequence.

    The numpy default ("linear"): rank ``(n-1) * fraction``, fractional
    ranks interpolate between neighbors.  Deterministic and exact on
    the boundary ranks, and never outside ``[min, max]``.

    Raises:
        ValueError: On an empty sequence or ``fraction`` outside [0, 1].
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    if n == 1:
        return sorted_values[0]
    rank = (n - 1) * fraction
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    weight = rank - lo
    if weight == 0.0:
        return sorted_values[lo]
    value = sorted_values[lo] * (1.0 - weight) + sorted_values[hi] * weight
    # Interpolation round-off must not escape the observed range.
    return min(max(value, sorted_values[0]), sorted_values[-1])


def _percentile_row(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """p50/p90/p99 (plus count) of a value sequence; Nones when empty."""
    row: Dict[str, Optional[float]] = {"count": float(len(values))}
    if not values:
        for fraction in PERCENTILES:
            row[f"p{int(fraction * 100)}"] = None
        return row
    ordered = sorted(values)
    for fraction in PERCENTILES:
        row[f"p{int(fraction * 100)}"] = percentile(ordered, fraction)
    return row


class AttribAccumulator:
    """One run's attribution, folded one span at a time.

    :meth:`add` takes the fields of one finalized span (the
    :data:`~repro.obs.spans.SpanSink` signature, so a live
    :class:`~repro.obs.spans.SpanFold` feeds it without building a
    span object); :meth:`add_span` takes a :class:`QuerySpan`.  It
    keeps exact fixed-point wait totals, counters, per-cause counts and
    the latency and slack samples the percentiles need, nothing else:

    * :meth:`waits` — where the lifecycle time went, by wait state:
      exact fixed-point sums of the spans' per-state totals, converted
      to floats once at the end; ``share`` is each state's fraction of
      the total spanned time.  Also counts preemptions, restarts, and
      the spans themselves (rejections separately — they carry no time).
    * :meth:`percentiles` — latency and deadline-slack rows over
      completed spans (rejections carry no lifecycle).  Latency is the
      exact admit → end duration, correctly rounded; slack is
      ``deadline − outcome_time`` (negative means the deadline passed —
      only deadline misses land there under firm deadlines).
    * :meth:`ledger` — the Eq. 5 decomposition attributed span by span
      (see :func:`usm_loss_ledger`).
    """

    __slots__ = (
        "totals_fixed",
        "completed",
        "rejected",
        "preemptions",
        "restarts",
        "latencies",
        "slacks",
        "counts",
        "causes",
    )

    def __init__(self) -> None:
        self.totals_fixed = [0] * len(WAIT_STATES)
        self.completed = 0
        self.rejected = 0
        self.preemptions = 0
        self.restarts = 0
        self.latencies = array("d")
        self.slacks = array("d")
        self.counts: Dict[str, int] = {component: 0 for component in _COMPONENTS}
        self.causes: Dict[str, Dict[str, int]] = {component: {} for component in _COMPONENTS}

    def add(
        self,
        admit: Optional[float],
        end: float,
        deadline: Optional[float],
        wait_fixed: Tuple[int, ...],
        preemptions: int,
        restarts: int,
        component: str,
        cause: Optional[str],
    ) -> None:
        """Fold one finalized span given as its fields."""
        counts = self.counts
        counts[component] = counts.get(component, 0) + 1
        if cause is not None:
            bucket = self.causes.setdefault(component, {})
            bucket[cause] = bucket.get(cause, 0) + 1
        if admit is None:
            self.rejected += 1
            return
        self.completed += 1
        self.preemptions += preemptions
        self.restarts += restarts
        totals = self.totals_fixed
        for index, dur in enumerate(wait_fixed):
            totals[index] += dur
        self.latencies.append(float_from_fixed(sum(wait_fixed)))
        if deadline is not None:
            self.slacks.append(deadline - end)

    def add_span(self, span: QuerySpan) -> None:
        """Fold one :class:`QuerySpan`."""
        self.add(
            span.admit,
            span.end,
            span.deadline,
            span.wait_fixed,
            span.preemptions,
            span.restarts,
            span.usm_component,
            span.cause,
        )

    def waits(self) -> Dict[str, object]:
        totals_fixed = self.totals_fixed
        grand = sum(totals_fixed)
        return {
            "totals": {
                state: float_from_fixed(fx) for state, fx in zip(WAIT_STATES, totals_fixed)
            },
            "shares": {
                state: (fx / grand if grand else 0.0)
                for state, fx in zip(WAIT_STATES, totals_fixed)
            },
            "completed": self.completed,
            "rejected": self.rejected,
            "preemptions": self.preemptions,
            "restarts": self.restarts,
        }

    def percentiles(self) -> Dict[str, Dict[str, Optional[float]]]:
        return {
            "latency": _percentile_row(self.latencies),
            "slack": _percentile_row(self.slacks),
        }

    def ledger(self, profile: PenaltyProfile) -> Dict[str, object]:
        weights = {
            "S": profile.gain,
            "R": profile.c_r,
            "F_m": profile.c_fm,
            "F_s": profile.c_fs,
        }
        counts = self.counts
        total = sum(counts.values())
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
            "counts": dict(counts),
            "ratios": ratios,
            "components": components,
            "causes": {
                component: dict(sorted(bucket.items()))
                for component, bucket in self.causes.items()
            },
            "usm": usm,
            "profile": profile.describe(),
        }

    def report(self, profile: PenaltyProfile) -> Dict[str, object]:
        """The full attribution: breakdown + percentiles + ledger."""
        return {
            "waits": self.waits(),
            "percentiles": self.percentiles(),
            "ledger": self.ledger(profile),
        }


def _fold(spans: Iterable[QuerySpan]) -> AttribAccumulator:
    accumulator = AttribAccumulator()
    for span in spans:
        accumulator.add_span(span)
    return accumulator


def wait_breakdown(spans: Iterable[QuerySpan]) -> Dict[str, object]:
    """Where the lifecycle time of a span set went, by wait state
    (:meth:`AttribAccumulator.waits`)."""
    return _fold(spans).waits()


def latency_slack_percentiles(
    spans: Iterable[QuerySpan],
) -> Dict[str, Dict[str, Optional[float]]]:
    """Latency and deadline-slack percentile rows over completed spans
    (:meth:`AttribAccumulator.percentiles`)."""
    return _fold(spans).percentiles()


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
    return _fold(spans).ledger(profile)


def attrib_report(
    spans: Iterable[QuerySpan],
    profile: PenaltyProfile,
) -> Dict[str, object]:
    """One run's full attribution: breakdown + percentiles + ledger."""
    return _fold(spans).report(profile)


# ----------------------------------------------------------------------
# ASCII rendering (the ``obs attrib`` CLI output)
# ----------------------------------------------------------------------


def wait_table(breakdown: Mapping[str, object], title: str = "Wait breakdown") -> str:
    """Render a wait breakdown as a fixed-width table."""
    from repro.experiments.report import ascii_table

    totals = breakdown["totals"]
    shares = breakdown["shares"]
    rows = [
        [state, totals[state], shares[state]]  # type: ignore[index]
        for state in WAIT_STATES
    ]
    footer = (
        f"{title} — {breakdown['completed']} completed, "
        f"{breakdown['rejected']} rejected, "
        f"{breakdown['preemptions']} preemptions, "
        f"{breakdown['restarts']} restarts"
    )
    return ascii_table(["state", "total (s)", "share"], rows, title=footer)


def percentile_table(
    percentiles: Mapping[str, Mapping[str, Optional[float]]],
    title: str = "Latency / slack percentiles",
) -> str:
    """Render latency/slack percentile rows as a table."""
    from repro.experiments.report import ascii_table

    headers = ["metric", "count"] + [f"p{int(f * 100)}" for f in PERCENTILES]
    rows = []
    for metric in sorted(percentiles):
        row_data = percentiles[metric]
        cells: List[object] = [metric, int(row_data["count"] or 0)]
        for fraction in PERCENTILES:
            value = row_data.get(f"p{int(fraction * 100)}")
            cells.append("-" if value is None else value)
        rows.append(cells)
    return ascii_table(headers, rows, title=title)


def ledger_table(
    ledger: Mapping[str, object], title: str = "USM-loss ledger"
) -> str:
    """Render a USM-loss ledger as a fixed-width table."""
    from repro.experiments.report import ascii_table

    counts = ledger["counts"]
    ratios = ledger["ratios"]
    components = ledger["components"]
    causes = ledger["causes"]
    rows = []
    for component in ("S", "R", "F_m", "F_s"):
        cause_text = ", ".join(
            f"{cause}:{count}"
            for cause, count in causes[component].items()  # type: ignore[index]
        )
        rows.append(
            [
                component,
                counts[component],  # type: ignore[index]
                ratios[component],  # type: ignore[index]
                components[component],  # type: ignore[index]
                cause_text or "-",
            ]
        )
    heading = (
        f"{title} — {ledger['total']} queries, USM={ledger['usm']:+.4f}, "
        f"profile {ledger['profile']}"
    )
    return ascii_table(
        ["component", "count", "ratio", "value", "causes"], rows, title=heading
    )
