"""Update Frequency Modulation (paper Section 3.4).

*Degrading* stretches the current period of a lottery-picked victim
item by ``(1 + C_du)`` (Eq. 9, ``C_du = 0.1``); *upgrading* shrinks the
periods of all degraded items back toward their ideal period (Eq. 10 as
disambiguated in DESIGN.md: halve the period, floor at the ideal,
``C_uu = 0.5``).

The paper issues one Degrade/Upgrade signal per control decision at
trace scale (millions of seconds).  At our configurable scale a signal
runs up to ``rounds`` victim rounds so the modulator converges within
the shorter horizon; ``rounds=1`` recovers the paper's literal
behaviour.  A signal ends early when a round finds no uncapped victim
and escalation does not apply.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.core.tickets import TicketBook
from repro.db.items import DataItem, ItemTable
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.sim.engine import Simulator

DEFAULT_C_DU = 0.1  # period stretch per degrade (Eq. 9)
DEFAULT_C_UU = 0.5  # period shrink per upgrade (Eq. 10)
DEFAULT_MAX_STRETCH = 100.0  # cap on pc_j / pi_j (bounds staleness)


class UpdateFrequencyModulator:
    """The UM module: owns period modulation of all data items."""

    def __init__(
        self,
        items: ItemTable,
        tickets: TicketBook,
        rng: random.Random,
        c_du: float = DEFAULT_C_DU,
        c_uu: float = DEFAULT_C_UU,
        max_stretch: float = DEFAULT_MAX_STRETCH,
    ) -> None:
        if len(items) != len(tickets):
            raise ValueError("item table and ticket book sizes differ")
        if not 1.0 + c_du > 1.0:
            raise ValueError("c_du must stretch the period (1 + c_du > 1)")
        if c_uu <= 0:
            raise ValueError("c_uu must be positive")
        if max_stretch <= 1:
            raise ValueError("max_stretch must exceed 1")
        self.items = items
        self.tickets = tickets
        self.c_du = c_du
        self.c_uu = c_uu
        self.max_stretch = max_stretch
        # Escalation: when the update-dominated pool is fully degraded
        # and the controller still demands shedding, walk the ticket
        # threshold into protected items.  The floor bounds how deep the
        # walk may go: items whose tickets sit below it (heavily queried
        # — one access outweighs several updates) are never exposed no
        # matter how long the overload lasts.
        self.escalate = False
        self.threshold_step = 0.5  # tau step per escalation/relaxation
        self.escalation_floor = -1.0
        self._rng = rng
        self.degrade_events = 0
        self.upgrade_events = 0
        # Observability: the modulator has no clock, so the recorder is
        # paired with the simulator whose virtual time stamps the
        # modulation.change events (one per signal that changed an
        # item).  Disabled by default.
        self._obs: Recorder = NULL_RECORDER
        self._obs_sim: Optional[Simulator] = None

    def bind_observer(self, recorder: Recorder, sim: Simulator) -> None:
        """Attach a trace recorder; event times come from ``sim.now``."""
        self._obs = recorder
        self._obs_sim = sim

    def degrade(self, rounds: int = 1) -> List[int]:
        """Handle a Degrade Update signal: up to ``rounds`` rounds, each
        stretching one lottery-picked victim's period by ``(1 + C_du)``.

        A pick that lands on an item already at the stretch cap is
        redrawn, up to 8 draws per round.  A round whose 8 draws all
        land on capped items, or that finds no positive weight, ends
        the signal unless escalation lowers the ticket threshold (at
        most once per signal) and a redraw then succeeds.  Returns the
        victim item ids (may repeat; empty when no item has positive
        lottery weight yet), which one ``modulation.change`` event
        records when tracing is on.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        # Bound once per signal.  ``sample`` is looked up on the class
        # here, so a wrapper installed on ``LotteryScheduler.sample``
        # still sees every draw.
        sample = self.tickets.lottery.sample
        rows = self.items.rows
        stretch = 1.0 + self.c_du
        victims: List[int] = []
        newly_degraded = 0
        escalated = False
        for _ in range(rounds):
            victim = self._sample_below_cap(sample, rows)
            if victim is None:
                # Eight draws in a row landed on capped items, or no
                # item has positive weight, yet the controller still
                # wants to shed — escalate by walking the threshold
                # down into more protected items.  At most one
                # escalation step per signal, so sustained overload is
                # needed to reach well-protected items.
                if escalated or not self.escalate:
                    break
                if self.tickets.threshold - self.threshold_step < self.escalation_floor:
                    break  # never expose heavily-queried items
                escalated = True
                before = self.tickets.threshold
                if self.tickets.lower_threshold(self.threshold_step) >= before:
                    break  # already at the minimum ticket: nothing left
                victim = self._sample_below_cap(sample, rows)
                if victim is None:
                    break
            item = rows[victim]
            # ``ItemTable.degrade``'s float expression and count, inlined:
            # a stretch by ``1 + C_du > 1`` always lifts ``pc`` above ``pi``.
            period = item.current_period
            if not period > item.ideal_period:
                newly_degraded += 1
            item.current_period = period * stretch
            victims.append(victim)
        if victims:
            self.items.note_degraded(newly_degraded)
            self.degrade_events += 1
            obs = self._obs
            if obs.enabled and self._obs_sim is not None:
                obs.modulation_change(self._obs_sim.now, "degrade", tuple(victims))
        return victims

    def _sample_below_cap(
        self,
        sample: Callable[[random.Random], Optional[int]],
        rows: Sequence[DataItem],
        attempts: int = 8,
    ) -> Optional[int]:
        """Draw until a pick lands below the stretch cap; None after
        ``attempts`` capped picks in a row or on a zero total weight."""
        rng = self._rng
        max_stretch = self.max_stretch
        for _ in range(attempts):
            victim = sample(rng)
            if victim is None:
                return None
            item = rows[victim]
            if item.current_period < max_stretch * item.ideal_period:
                return victim
        return None

    def upgrade_all(self) -> int:
        """Handle an Upgrade Update signal: shrink the period of every
        degraded item toward its ideal period (Eq. 10) and relax the
        escalation threshold back toward zero.

        Returns the number of items whose period changed; one
        ``modulation.change`` event records their ids when tracing is on.
        """
        self.relax_threshold()
        upgraded = self.items.upgrade_degraded(self.c_uu)
        if upgraded:
            self.upgrade_events += 1
            obs = self._obs
            if obs.enabled and self._obs_sim is not None:
                obs.modulation_change(
                    self._obs_sim.now,
                    "upgrade",
                    tuple([item.item_id for item in upgraded]),
                )
        return len(upgraded)

    def relax_threshold(self) -> None:
        """Ease the escalation threshold back toward zero.

        Called on every Upgrade signal and — by the UNIT policy — on any
        control decision that did not demand degradation, so sustained
        pressure is required to *hold* the threshold down (an integral
        controller rather than a ratchet)."""
        if self.tickets.threshold < 0.0:
            self.tickets.raise_threshold(self.threshold_step)

    def degraded_count(self) -> int:
        """Number of items currently held above their ideal period."""
        return self.items.degraded_count()
