"""Declarative fault scenarios.

A :class:`FaultScenario` is an immutable, hashable description of the
stress a run is subjected to, layered on top of the base workload:

* :class:`FlashCrowd` — an arrival-rate multiplier over a time window
  (the query stream bursts, or thins when the multiplier is below 1);
* :class:`UpdateStorm` — an update-period override for every item
  over a window.  ``period_factor < 1`` is a storm (the source emits
  faster), ``period_factor == 0`` is an update-stream *outage* (the
  window is silent);
* :class:`HotspotShift` — an access-popularity rotation applied to all
  query accesses from a point in time on (the hot set moves);
* :class:`ServerSlowdown` — a service-rate multiplier over a window
  (modeling CPU contention: the same work takes ``1/rate`` as long).

The first three shape the *traces* and are applied at workload-build
time (:mod:`repro.workload.perturb`); the slowdown is applied live by
the :class:`repro.faults.driver.FaultDriver`.  Correspondingly,
:meth:`FaultScenario.workload_fingerprint` covers exactly the
trace-shaping injectors — a slowdown-only scenario hashes to the empty
fingerprint, so paired runs with and without it share one workload
cache entry, and a config with no scenario keeps the
``workload_key()`` of a config without one, byte for byte.  No scenario
reaches ``query_key()``: the base query trace is cached unperturbed.

Determinism contract: scenario application draws only from named
``RandomStreams`` substreams (``fault-*``), disjoint from every
workload and policy stream, so equal seeds give byte-identical traces
— and an unconfigured run never touches the ``fault-*`` streams at
all.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

#: Fingerprint schema version; bump when injection semantics change.
_FINGERPRINT_VERSION = "faults-v1"


def _coerce_floats(obj: object, *fields: str) -> None:
    """Canonicalize numeric fields of a frozen dataclass to float, so
    ``FlashCrowd(30, 60, 3)`` and ``FlashCrowd(30.0, 60.0, 3.0)``
    fingerprint (and hash) identically."""
    for field in fields:
        object.__setattr__(obj, field, float(getattr(obj, field)))


@dataclasses.dataclass(frozen=True)
class FlashCrowd:
    """Query arrival-rate multiplier over ``[start, end)``.

    ``multiplier > 1`` replicates in-window queries (a crowd);
    ``multiplier < 1`` thins them (an audience drop-off).
    """

    start: float
    end: float
    multiplier: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "start", "end", "multiplier")
        if self.end <= self.start:
            raise ValueError("flash crowd window must have end > start")
        if self.multiplier < 0:
            raise ValueError("multiplier cannot be negative")

    def params(self) -> Dict[str, float]:
        return {"start": self.start, "end": self.end, "multiplier": self.multiplier}


@dataclasses.dataclass(frozen=True)
class UpdateStorm:
    """Update-period override over ``[start, end)``.

    In-window arrivals of the affected items are regenerated with
    period ``base_period * period_factor``: ``period_factor < 1`` is a
    storm, ``> 1`` a lull, and ``0`` silences the window entirely (an
    update-stream outage).  The override applies to every item.
    """

    start: float
    end: float
    period_factor: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "start", "end", "period_factor")
        if self.end <= self.start:
            raise ValueError("update storm window must have end > start")
        if self.period_factor < 0:
            raise ValueError("period_factor cannot be negative")

    @property
    def is_outage(self) -> bool:
        return self.period_factor == 0.0

    def params(self) -> Dict[str, float]:
        return {"start": self.start, "end": self.end, "period_factor": self.period_factor}


@dataclasses.dataclass(frozen=True)
class HotspotShift:
    """Access-popularity rotation from time ``at`` on.

    Every query arriving at or after ``at`` has each accessed item id
    ``j`` remapped to ``(j + rotation) % n_items`` — the popularity
    histogram rotates, so the items the controller learned to protect
    go cold and previously cold items become hot.
    """

    at: float
    rotation: int

    def __post_init__(self) -> None:
        _coerce_floats(self, "at")
        if self.at < 0:
            raise ValueError("shift time cannot be negative")
        if self.rotation == 0:
            raise ValueError("rotation must be non-zero")

    def params(self) -> Dict[str, float]:
        return {"at": self.at, "rotation": float(self.rotation)}


@dataclasses.dataclass(frozen=True)
class ServerSlowdown:
    """Service-rate multiplier over ``[start, end)``.

    ``rate`` scales how much work the CPU retires per simulated second
    (0.5 = everything takes twice as long).  Overlapping slowdowns
    compose multiplicatively.
    """

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        _coerce_floats(self, "start", "end", "rate")
        if self.end <= self.start:
            raise ValueError("slowdown window must have end > start")
        if self.rate <= 0:
            raise ValueError("rate must be positive (use a small value, not 0)")

    def params(self) -> Dict[str, float]:
        return {"start": self.start, "end": self.end, "rate": self.rate}


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault interval, resolved for the driver/metrics.

    ``kind`` is the injector family (``flash-crowd`` / ``update-storm``
    / ``hotspot-shift`` / ``server-slowdown``); ``label`` is unique
    within the scenario.  Instantaneous faults (hotspot shifts) have
    ``end == start``.
    """

    label: str
    kind: str
    start: float
    end: float
    params: Tuple[Tuple[str, float], ...]

    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)


@dataclasses.dataclass(frozen=True)
class FaultScenario:
    """A named, immutable bundle of fault injections."""

    name: str
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    update_storms: Tuple[UpdateStorm, ...] = ()
    hotspot_shifts: Tuple[HotspotShift, ...] = ()
    slowdowns: Tuple[ServerSlowdown, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        # Tolerate lists at construction time; store canonical tuples so
        # the dataclass stays hashable.
        for field in ("flash_crowds", "update_storms", "hotspot_shifts", "slowdowns"):
            value = getattr(self, field)
            if not isinstance(value, tuple):
                object.__setattr__(self, field, tuple(value))

    @property
    def is_empty(self) -> bool:
        return not (
            self.flash_crowds
            or self.update_storms
            or self.hotspot_shifts
            or self.slowdowns
        )

    def shapes_workload(self) -> bool:
        """True when the scenario perturbs the generated traces (so it
        must participate in the workload cache key)."""
        return bool(self.flash_crowds or self.update_storms or self.hotspot_shifts)

    def workload_fingerprint(self) -> str:
        """Canonical hash input covering the trace-shaping injectors.

        Empty for scenarios that leave the traces untouched (slowdown
        only, or no faults at all) — the caller then omits it from the
        cache key, keeping unconfigured keys byte-identical to pre-fault
        builds.  Floats are canonicalized with ``float.hex()``.
        """
        if not self.shapes_workload():
            return ""
        parts: List[str] = [_FINGERPRINT_VERSION]
        for crowd in self.flash_crowds:
            parts.append(
                "fc:" + ",".join(
                    (crowd.start.hex(), crowd.end.hex(), crowd.multiplier.hex())
                )
            )
        for storm in self.update_storms:
            parts.append(
                "us:" + ",".join(
                    (storm.start.hex(), storm.end.hex(), storm.period_factor.hex())
                )
            )
        for shift in self.hotspot_shifts:
            parts.append("hs:" + ",".join((shift.at.hex(), str(shift.rotation))))
        return "\x1e".join(parts)

    def timeline(self) -> List[FaultWindow]:
        """Every fault interval with a stable label, ordered by
        ``(start, label)`` — the driver's schedule and the metrics
        module's window list."""
        windows: List[FaultWindow] = []
        for i, crowd in enumerate(self.flash_crowds):
            windows.append(
                FaultWindow(
                    label=f"flash-crowd-{i}",
                    kind="flash-crowd",
                    start=crowd.start,
                    end=crowd.end,
                    params=tuple(sorted(crowd.params().items())),
                )
            )
        for i, storm in enumerate(self.update_storms):
            kind = "update-outage" if storm.is_outage else "update-storm"
            windows.append(
                FaultWindow(
                    label=f"{kind}-{i}",
                    kind=kind,
                    start=storm.start,
                    end=storm.end,
                    params=tuple(sorted(storm.params().items())),
                )
            )
        for i, shift in enumerate(self.hotspot_shifts):
            windows.append(
                FaultWindow(
                    label=f"hotspot-shift-{i}",
                    kind="hotspot-shift",
                    start=shift.at,
                    end=shift.at,
                    params=tuple(sorted(shift.params().items())),
                )
            )
        for i, slow in enumerate(self.slowdowns):
            windows.append(
                FaultWindow(
                    label=f"server-slowdown-{i}",
                    kind="server-slowdown",
                    start=slow.start,
                    end=slow.end,
                    params=tuple(sorted(slow.params().items())),
                )
            )
        windows.sort(key=lambda window: (window.start, window.label))
        return windows

    def describe(self) -> str:
        counts = []
        if self.flash_crowds:
            counts.append(f"{len(self.flash_crowds)} flash crowd(s)")
        if self.update_storms:
            counts.append(f"{len(self.update_storms)} update storm(s)/outage(s)")
        if self.hotspot_shifts:
            counts.append(f"{len(self.hotspot_shifts)} hotspot shift(s)")
        if self.slowdowns:
            counts.append(f"{len(self.slowdowns)} slowdown(s)")
        return f"{self.name}: " + (", ".join(counts) if counts else "no faults")
