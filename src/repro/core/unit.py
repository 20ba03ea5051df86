"""The UNIT policy: the paper's feedback control system (Fig. 1).

Wires together the three modules around the server's data flow:

* :class:`~repro.core.admission.AdmissionController` filters arriving
  queries (deadline check with the LBC-tuned ``C_flex``, plus the
  system-USM check);
* :class:`~repro.core.modulation.UpdateFrequencyModulator` stretches or
  shrinks per-item update periods, choosing degradation victims by
  lottery over the :class:`~repro.core.tickets.TicketBook`;
* :class:`~repro.core.controller.LoadBalancingController` watches the
  windowed USM and issues LAC / TAC+DU / UU signals, periodically and
  on USM drops.

Update arrivals are gated by the modulated period ``pc_j``: an arrival
is applied when at least ``pc_j`` elapsed since the last applied
arrival of that item, otherwise it is dropped (raising the item's
staleness lag).
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.admission import AdmissionController
from repro.core.controller import ControlSignal, LoadBalancingController
from repro.core.modulation import UpdateFrequencyModulator
from repro.core.tickets import TicketBook
from repro.core.usm import PenaltyProfile, UsmWindow
from repro.db.items import DataItem
from repro.db.policy_api import ServerPolicy
from repro.db.server import CONTROL_EVENT_PRIORITY
from repro.db.transactions import Outcome, QueryTransaction, UpdateTransaction
from repro.obs.trace import NULL_RECORDER, Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.server import Server


@dataclasses.dataclass
class UnitConfig:
    """Tunables of the UNIT framework.

    The constants mirror the paper: ``C_flex`` starts at 1 and moves
    ±10 % per TAC/LAC; ``C_du = 0.1``; ``C_uu = 0.5``;
    ``C_forget = 0.9``; the USM-drop trigger threshold is 1 % of the
    USM range.  ``degrade_rounds`` is our scale adaptation (see
    :mod:`repro.core.modulation`): lottery picks applied per Degrade
    signal; 1 recovers the paper's literal single pick.
    """

    profile: PenaltyProfile = dataclasses.field(default_factory=PenaltyProfile.naive)
    control_period: float = 1.0
    window: float = 20.0
    # Start admission loose: with firm deadlines and EDF, a rejected
    # query and a missed query cost the same under naive weights, so
    # the deadline check should only catch clearly-hopeless arrivals
    # until the LBC asks for more.
    initial_c_flex: float = 0.25
    use_usm_check: bool = True
    c_du: float = 0.1
    c_uu: float = 0.5
    c_forget: float = 0.9
    # Multiplier on Eq. 6's per-access ticket decrement (qe/qt).  The
    # paper's decrement is measured in query CPU-utilization units, so
    # with deadlines much looser than execution times it is tiny
    # compared to Eq. 7's ~0.5 update increment and hot items stay
    # lottery-eligible.  1.0 is paper-literal; raise it when deadlines
    # are loose relative to execution times.
    access_ticket_scale: float = 1.0
    # Lottery picks applied per Degrade signal.  None = auto-scale to
    # half the database size at bind time; 1 recovers the paper's
    # literal single pick per signal (appropriate at trace scale).
    degrade_rounds: Optional[int] = None
    usm_drop_fraction: float = 0.01
    min_window_samples: int = 10
    # Escalating degradation pressure (see repro.core.modulation):
    # when every update-dominated item is fully degraded and overload
    # persists, walk the ticket threshold into protected items.
    escalate_modulation: bool = True
    # Deviation from Fig. 2 needed at heavy update volume (see
    # DESIGN.md): when rejections dominate *and* the update class has
    # been eating most of the CPU, loosening admission alone cannot
    # reduce rejections — the controller additionally degrades updates.
    # Without this, a 150% update load locks the system into an
    # all-reject equilibrium in which F_m never dominates and Degrade
    # Update is never issued.
    degrade_on_rejections: bool = True
    rejection_update_load_threshold: float = 0.5
    # Hold Degrade signals until tickets have had time to differentiate
    # hot from cold items; the very first signals otherwise land on
    # uniformly-flat tickets and degrade hot items, whose early DSF
    # damage the slow Upgrade path takes long to repair.
    modulation_warmup: float = 10.0
    max_period_stretch: float = 100.0

    def __post_init__(self) -> None:
        if self.control_period <= 0:
            raise ValueError("control_period must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.degrade_rounds is not None and self.degrade_rounds <= 0:
            raise ValueError("degrade_rounds must be positive")
        if not 0 < self.usm_drop_fraction < 1:
            raise ValueError("usm_drop_fraction must be in (0, 1)")


class UnitPolicy(ServerPolicy):
    """UNIT: USM-maximizing admission control + update modulation."""

    def __init__(
        self,
        config: UnitConfig,
        rng: random.Random,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.config = config
        self._rng = rng
        # Observability sink shared with the AC / LBC / UM modules.
        # Emission never touches ``rng``, so traced and untraced runs
        # follow identical control trajectories.
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER
        # Built at bind() time, when the item table is known.
        self.tickets: Optional[TicketBook] = None
        self.modulator: Optional[UpdateFrequencyModulator] = None
        self.admission: Optional[AdmissionController] = None
        self.usm_window: Optional[UsmWindow] = None
        self.lbc: Optional[LoadBalancingController] = None
        self._server: Optional["Server"] = None
        self._last_apply: Dict[int, float] = {}
        self._last_drop_allocation = -float("inf")
        self._last_update_busy = 0.0
        self._degrade_rounds = 1  # resolved at bind()
        self.signals_applied: Dict[ControlSignal, int] = {
            signal: 0 for signal in ControlSignal
        }

    # ------------------------------------------------------------------
    # ServerPolicy interface
    # ------------------------------------------------------------------

    def bind(self, server: "Server") -> None:
        config = self.config
        self._server = server
        self.tickets = TicketBook(len(server.items), forgetting=config.c_forget)
        self.modulator = UpdateFrequencyModulator(
            server.items,
            self.tickets,
            self._rng,
            c_du=config.c_du,
            c_uu=config.c_uu,
            max_stretch=config.max_period_stretch,
        )
        self.modulator.escalate = config.escalate_modulation
        self._degrade_rounds = config.degrade_rounds or max(16, len(server.items) // 2)
        self.admission = AdmissionController(
            config.profile,
            c_flex=config.initial_c_flex,
            use_usm_check=config.use_usm_check,
        )
        self.usm_window = UsmWindow(config.profile, config.window)
        self.lbc = LoadBalancingController(
            self.usm_window,
            self._rng,
            usm_drop_threshold=config.usm_drop_fraction * config.profile.usm_range,
            min_samples=config.min_window_samples,
        )
        if self.obs.enabled:
            self.admission.recorder = self.obs
            self.lbc.recorder = self.obs
            self.modulator.bind_observer(self.obs, server.sim)
        server.sim.schedule_after(
            config.control_period, self._control_tick, priority=CONTROL_EVENT_PRIORITY
        )

    def admit_query(self, query: QueryTransaction, server: "Server") -> bool:
        assert self.admission is not None
        return self.admission.decide(query, server).admitted

    def on_query_admitted(self, query: QueryTransaction, server: "Server") -> None:
        assert self.tickets is not None
        decrement = query.cpu_utilization * self.config.access_ticket_scale
        for item_id in query.items:
            self.tickets.on_query_access(item_id, decrement)

    def should_apply_update(self, item: DataItem, server: "Server") -> bool:
        now = server.now
        last = self._last_apply.get(item.item_id)
        if last is None or now - last >= item.current_period * (1.0 - 1e-9):
            self._last_apply[item.item_id] = now
            return True
        return False

    def on_update_applied(
        self, update: UpdateTransaction, item: DataItem, server: "Server"
    ) -> None:
        assert self.tickets is not None
        # Ticket pressure accrues per *executed* update: Section 3.4.1
        # targets "the data item that the system spends too much time
        # updating", i.e. actual CPU spent, not stream arrivals.  This
        # also self-balances degradation depth — a degraded item
        # executes rarely, stops gaining tickets, and its query accesses
        # pull its ticket back down.
        self.tickets.on_update(item.item_id, update.exec_time)

    def on_query_outcome(self, outcome: Outcome, server: "Server") -> None:
        assert self.usm_window is not None and self.lbc is not None
        self.usm_window.record(server.now, outcome)
        # Event trigger: a big USM drop runs Adaptive Allocation without
        # waiting for the periodic tick (rate-limited to a quarter
        # period so one burst cannot spam signals).
        if (
            server.now - self._last_drop_allocation >= self.config.control_period / 4.0
            and self.lbc.check_drop(server.now)
        ):
            self._last_drop_allocation = server.now
            self._apply_signals(self.lbc.allocate(server.now))

    def on_fault(self, label: str, active: bool, server: "Server") -> None:
        """Snapshot the controller at a fault boundary (trace only).

        Emission draws nothing from ``rng`` and mutates no control
        state, so traced runs with and without observability follow the
        same trajectory — the snapshot just pins the window decomposition
        at the instant the fault opens/closes, which the degradation
        analysis lines up against the ``fault.*`` markers.
        """
        rec = self.obs
        if rec.enabled:
            self._emit_window_snapshot(rec, [])

    def describe(self) -> str:
        return "UNIT"

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------

    def _control_tick(self) -> None:
        assert self._server is not None and self.lbc is not None
        assert self.admission is not None
        self._refresh_update_load()
        self._apply_signals(self.lbc.allocate(self._server.now))
        self._server.sim.schedule_after(
            self.config.control_period,
            self._control_tick,
            priority=CONTROL_EVENT_PRIORITY,
        )

    def _refresh_update_load(self) -> None:
        """Feed the admission controller the update class's recent CPU
        share (EWMA over control periods)."""
        assert self._server is not None and self.admission is not None
        busy_update = self._server.busy_time_by_class()["update"]
        share = (busy_update - self._last_update_busy) / self.config.control_period
        self._last_update_busy = busy_update
        smoothed = 0.7 * self.admission.update_load + 0.3 * min(1.0, share)
        self.admission.update_load = smoothed

    def _apply_signals(self, signals: Sequence[ControlSignal]) -> None:
        assert self.admission is not None and self.modulator is not None
        if (
            self.config.degrade_on_rejections
            and ControlSignal.LOOSEN_ADMISSION in signals
            and ControlSignal.DEGRADE_UPDATES not in signals
            and self.admission.update_load
            > self.config.rejection_update_load_threshold
        ):
            signals = list(signals) + [ControlSignal.DEGRADE_UPDATES]
        if signals and ControlSignal.DEGRADE_UPDATES not in signals:
            # No demand for shedding this round: ease the escalation
            # threshold back toward zero (sustained pressure is needed
            # to keep exposing protected items).
            self.modulator.relax_threshold()
        for signal in signals:
            self.signals_applied[signal] += 1
            if signal is ControlSignal.LOOSEN_ADMISSION:
                self.admission.loosen()
            elif signal is ControlSignal.TIGHTEN_ADMISSION:
                self.admission.tighten()
            elif signal is ControlSignal.DEGRADE_UPDATES:
                if (
                    self._server is not None
                    and self._server.now >= self.config.modulation_warmup
                ):
                    self.modulator.degrade(self._degrade_rounds)
            elif signal is ControlSignal.UPGRADE_UPDATES:
                self.modulator.upgrade_all()
        rec = self.obs
        if rec.enabled:
            self._emit_window_snapshot(rec, signals)

    def _emit_window_snapshot(
        self, rec: Recorder, signals: Sequence[ControlSignal]
    ) -> None:
        """Record a ``control.window`` event: the Eq. 5 decomposition of
        the sliding window plus the knob values the signals left behind."""
        assert self._server is not None and self.usm_window is not None
        assert self.admission is not None and self.modulator is not None
        assert self.tickets is not None
        now = self._server.now
        window = self.usm_window
        ratios = window.ratios(now)
        components = {
            "S": ratios[Outcome.SUCCESS] * window.profile.gain,
            **window.cost_components(now),
            "ratio_success": ratios[Outcome.SUCCESS],
            "ratio_rejected": ratios[Outcome.REJECTED],
            "ratio_deadline_miss": ratios[Outcome.DEADLINE_MISS],
            "ratio_data_stale": ratios[Outcome.DATA_STALE],
        }
        rec.control_window(
            now,
            components,
            window.average_usm(now),
            window.sample_size(now),
            [signal.value for signal in signals],
            self.admission.c_flex,
            self.admission.update_load,
            self.modulator.degraded_count(),
            self.tickets.threshold,
        )
