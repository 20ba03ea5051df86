"""Query Admission Control (paper Section 3.3).

Two gates per arriving query, both backed by the ready queue's
incrementally-maintained backlog aggregates (O(buckets) reads instead
of full scans; the endangered-queries walk touches only the candidates
dispatched after the newcomer, already in EDF order):

1. **Transaction deadline check** — keep only *promising* queries:
   ``C_flex * EST_i + qe_i < qt_i`` where ``EST_i`` is the earliest
   possible start time (the backlog that must drain before ``q_i`` can
   run under the dual-priority EDF discipline) and ``C_flex`` is the
   lag ratio the LBC tunes: Tighten/Loosen Admission Control signals
   move it ±10 % (larger ``C_flex`` = tighter admission).

2. **System USM check** — even a promising query is rejected when the
   DMF penalty of the already-admitted queries it would endanger
   exceeds the rejection penalty of turning it away.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List

from repro.core.usm import PenaltyProfile
from repro.db.transactions import QueryTransaction
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sim.stats import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.server import Server

FLEX_STEP = 0.10  # TAC/LAC move C_flex by 10% (Section 3.3)
FLEX_MIN = 0.01
# Cap how far TAC can tighten: beyond a few multiples of the EST the
# controller is rejecting queries that would comfortably make their
# deadlines, and the LAC path takes many periods to walk back.
FLEX_MAX = 4.0


@dataclasses.dataclass
class AdmissionDecision:
    """A structured admission verdict (useful for tests and tracing)."""

    admitted: bool
    reason: str
    est: float = 0.0
    endangered: int = 0


class AdmissionController:
    """The AC module: deadline check plus system-USM check."""

    def __init__(
        self,
        profile: PenaltyProfile,
        c_flex: float = 1.0,
        use_usm_check: bool = True,
    ) -> None:
        if c_flex <= 0:
            raise ValueError("c_flex must be positive")
        self.profile = profile
        self.c_flex = c_flex
        self.use_usm_check = use_usm_check
        self.tighten_signals = 0
        self.loosen_signals = 0
        # Fraction of the CPU the update class has been consuming
        # recently (refreshed by the policy's control tick).  Under the
        # dual-priority discipline queued queries drain at rate
        # (1 - update load); we stretch the EST by a *bounded* factor,
        # because an unbounded stretch would reject every query under
        # update overload and thereby starve the R->LAC / F_m->DU
        # feedback the LBC relies on to shed that very load.
        self.update_load = 0.0
        self.max_drain_stretch = 2.0
        # Trace recorder; the owning policy swaps in a live one at bind
        # time when observability is enabled.
        self.recorder: Recorder = NULL_RECORDER

    # ------------------------------------------------------------------
    # LBC control signals
    # ------------------------------------------------------------------

    def tighten(self) -> None:
        """TAC: raise ``C_flex`` by 10 % (admit less)."""
        self.c_flex = min(FLEX_MAX, self.c_flex * (1.0 + FLEX_STEP))
        self.tighten_signals += 1

    def loosen(self) -> None:
        """LAC: lower ``C_flex`` by 10 % (admit more)."""
        self.c_flex = max(FLEX_MIN, self.c_flex * (1.0 - FLEX_STEP))
        self.loosen_signals += 1

    # ------------------------------------------------------------------
    # the admission decision
    # ------------------------------------------------------------------

    def earliest_start(self, query: QueryTransaction, server: "Server") -> float:
        """EST relative to now: backlog ahead of ``query`` under
        dual-priority EDF — the running transaction's remainder, all
        queued updates, and queued queries with earlier deadlines —
        stretched by the measured update load (future update arrivals
        preempt the whole query class)."""
        ready = server.ready
        if not ready and server.running_transaction() is None:
            # Idle server: every backlog term is exactly 0.0, and
            # 0.0 * stretch == 0.0 for any stretch.
            return 0.0
        backlog = server.running_remaining() + ready.backlog_ahead_of(query)
        return backlog * self._drain_stretch()

    def _drain_stretch(self) -> float:
        """Bounded EDF-drain correction for the measured update load."""
        # Branches instead of min/max builtins: this runs per admission
        # decision and the builtin calls dominate the arithmetic.
        drain = 1.0 - self.update_load
        if drain < 0.05:
            drain = 0.05
        stretch = 1.0 / drain
        if stretch > self.max_drain_stretch:
            stretch = self.max_drain_stretch
        return stretch

    def endangered_queries(
        self,
        query: QueryTransaction,
        server: "Server",
    ) -> List[QueryTransaction]:
        """Admitted ready queries that would newly miss their deadline
        if ``query`` (which runs before them under EDF) is admitted.

        A ready query ``r`` dispatched after the newcomer sees its start
        pushed back by ``qe_i``; it is endangered when its slack was
        non-negative but smaller than ``qe_i``.  "After" is the full
        EDF tie-break order (``priority_key``), so an equal-deadline
        ready query is classified exactly once: ahead of the newcomer
        (in the base backlog) when its txn id is smaller, behind it
        (endangered candidate) otherwise — never both, never neither.
        """
        endangered: List[QueryTransaction] = []
        prefix = 0.0
        base = -1.0
        now = server.now
        exec_time = query.exec_time
        for other in server.ready.queries_after(query):
            if base < 0.0:
                # First candidate: pay for the base backlog only when
                # the walk is non-empty (backlogs are never negative).
                base = server.running_remaining()
                base += server.ready.backlog_ahead_of(query)
            # Work ahead of `other` excluding the newcomer: base backlog
            # plus earlier-deadline ready queries between the newcomer
            # and `other`.
            start = base + prefix
            finish = now + start + other.remaining
            slack = other.deadline - finish
            if 0.0 <= slack < exec_time:
                endangered.append(other)
            prefix += other.remaining
        return endangered

    def decide(self, query: QueryTransaction, server: "Server") -> AdmissionDecision:
        """Run both admission gates for an arriving query."""
        decision = self._decide(query, server)
        rec = self.recorder
        if rec.enabled:
            rec.admission_decision(
                server.now,
                query.txn_id,
                decision.admitted,
                decision.reason,
                decision.est,
                decision.endangered,
                self.c_flex,
            )
        return decision

    def _decide(self, query: QueryTransaction, server: "Server") -> AdmissionDecision:
        # Paper Section 3.3: reject unless C_flex * EST + qe < qt.  The
        # drain stretch is folded into the EST (the backlog drains
        # slower under update load); the query's own execution time is
        # deliberately left unscaled so that driving C_flex down can
        # always take the rejection rate to (only) the truly-impossible
        # queries (qe >= qt).
        #
        # Preference-aware twist: a failed deadline check predicts a
        # miss, so by Eq. 3 economics rejection is only the cheaper
        # outcome when C_r < C_fm.  A profile that prices rejection
        # *above* a miss (C_r > C_fm) would rather take the gamble —
        # admit.  Under the naive all-zero weights the clause never
        # fires and the paper's literal check applies.
        est = self.earliest_start(query, server)
        profile = self.profile
        if self.c_flex * est + query.exec_time >= query.relative_deadline:
            if not profile.c_r > profile.c_fm:
                return AdmissionDecision(
                    admitted=False, reason="deadline-check", est=est
                )

        if self.use_usm_check and not profile.is_naive:
            endangered = self.endangered_queries(query, server)
            # One C_fm added per endangered query: len * C_fm rounds
            # differently for inexact weights.
            c_fm = profile.c_fm
            dmf_cost = ordered_sum(c_fm for _ in endangered)
            if dmf_cost > profile.c_r:
                return AdmissionDecision(
                    admitted=False,
                    reason="usm-check",
                    est=est,
                    endangered=len(endangered),
                )
            return AdmissionDecision(
                admitted=True, reason="ok", est=est, endangered=len(endangered)
            )

        return AdmissionDecision(admitted=True, reason="ok", est=est)
