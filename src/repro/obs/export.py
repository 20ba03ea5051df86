"""Exporters for recorded traces.

Three output formats, all deterministic byte-for-byte for a given
event sequence (keys sorted, compact separators, no wall-clock or
environment leakage):

* **JSONL** — one flattened event per line; the unit of the trace
  determinism tests (:func:`trace_digest` hashes exactly these bytes).
* **Chrome trace-event JSON** — loads in Perfetto / ``chrome://tracing``
  with three lanes: *server* (query lifetimes as complete events,
  admission/update instants), *controller* (window snapshots as counter
  tracks, allocation/modulation instants), and *locks* (2PL-HP
  preemptions; no lock ever waits).
* **Controller CSV** — one row per ``control.window`` snapshot: the USM
  components, the aggregate USM, and the knob values the controller
  chose.  The artifact to diff when calibrating the feedback loop.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.obs import trace as _trace

EventDict = Mapping[str, object]
TraceSource = Union["_trace.TraceRecorder", "FlatTrace", Iterable[EventDict]]

_SEC_TO_US = 1_000_000.0

# Chrome trace lanes (thread ids within the single simulated process).
_PID = 1
_TID_SERVER = 1
_TID_CONTROLLER = 2
_TID_LOCKS = 3

_LANE_NAMES = {
    _TID_SERVER: "server",
    _TID_CONTROLLER: "controller",
    _TID_LOCKS: "locks",
}

_LANE_BY_KIND = {
    _trace.QUERY_ADMIT: _TID_SERVER,
    _trace.QUERY_OUTCOME: _TID_SERVER,
    _trace.ADMISSION_DECISION: _TID_SERVER,
    _trace.UPDATE_APPLY: _TID_SERVER,
    _trace.UPDATE_DROP: _TID_SERVER,
    _trace.SCHED_ENQUEUE: _TID_SERVER,
    _trace.SCHED_DISPATCH: _TID_SERVER,
    _trace.SCHED_PARK: _TID_SERVER,
    _trace.LOCK_PREEMPT: _TID_LOCKS,
    _trace.MODULATION_CHANGE: _TID_CONTROLLER,
    _trace.CONTROL_ALLOCATE: _TID_CONTROLLER,
    _trace.CONTROL_WINDOW: _TID_CONTROLLER,
    _trace.FAULT_START: _TID_CONTROLLER,
    _trace.FAULT_END: _TID_CONTROLLER,
}


class FlatTrace:
    """A recorder's retained events, flattened once.

    Several exporters of one run can share it instead of each
    flattening the ring again.  It carries the recorder's drop and
    per-kind counts, so :func:`truncation_header` still writes the
    ``trace.meta`` header for a ring that wrapped (a bare list of
    dicts would silently lose it).
    """

    __slots__ = ("dropped", "counts", "_events")

    def __init__(self, recorder: "_trace.TraceRecorder") -> None:
        self.dropped = recorder.dropped
        self.counts = dict(recorder.counts)
        self._events = recorder.event_dicts()

    def __len__(self) -> int:
        return len(self._events)

    def event_dicts(self) -> List[Dict[str, object]]:
        return self._events


def _event_dicts(source: TraceSource) -> List[Dict[str, object]]:
    if hasattr(source, "event_dicts"):
        return source.event_dicts()  # type: ignore[union-attr]
    return [dict(event) for event in source]


def _dump_line(event: EventDict) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def truncation_header(source: TraceSource) -> Optional[Dict[str, object]]:
    """``trace.meta`` header when the ring buffer dropped events.

    None for complete traces (the common case), so their JSONL bytes —
    and therefore every historical :func:`trace_digest` — are
    unchanged.  Consumers (span builder, ``obs summary``) read the
    header to mark their output partial instead of silently analyzing
    a truncated stream.
    """
    dropped = getattr(source, "dropped", 0)
    if not dropped:
        return None
    header: Dict[str, object] = {"kind": _trace.TRACE_META, "dropped": dropped}
    counts = getattr(source, "counts", None)
    if counts:
        header["recorded"] = sum(counts.values())
    try:
        header["retained"] = len(source)  # type: ignore[arg-type]
    except TypeError:
        pass
    return header


def render_trace_jsonl(source: TraceSource) -> str:
    """The full JSONL text for a trace (one event per line).

    When the source recorder reports dropped events, a ``trace.meta``
    header line leads the dump so downstream consumers know the stream
    is truncated.
    """
    lines = [_dump_line(event) for event in _event_dicts(source)]
    header = truncation_header(source)
    if header is not None:
        lines.insert(0, _dump_line(header))
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_jsonl(source: TraceSource, path: Union[str, Path]) -> int:
    """Write the JSONL trace dump; returns the number of events."""
    events = _event_dicts(source)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    header = truncation_header(source)
    with target.open("w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(_dump_line(header))
            fh.write("\n")
        for event in events:
            fh.write(_dump_line(event))
            fh.write("\n")
    return len(events)


def trace_digest(source: TraceSource) -> str:
    """SHA-256 of the canonical JSONL bytes — the determinism contract."""
    return hashlib.sha256(
        render_trace_jsonl(source).encode("utf-8")
    ).hexdigest()


def chrome_trace_events(source: TraceSource) -> List[Dict[str, object]]:
    """Translate a trace into Chrome trace-event dicts (Perfetto-ready).

    Query outcomes become complete ("X") slices spanning arrival to
    completion on the server lane; ``control.window`` snapshots become
    counter ("C") tracks so Perfetto plots the USM components as
    stacked series; everything else is an instant ("i").
    """
    out: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro-sim"},
        }
    ]
    for tid, lane in sorted(_LANE_NAMES.items()):
        out.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": lane},
            }
        )
    for event in _event_dicts(source):
        kind = str(event.get("kind", ""))
        if kind == _trace.TRACE_META:
            continue  # synthetic truncation header, not a sim event
        tid = _LANE_BY_KIND.get(kind, _TID_SERVER)
        t_us = float(event.get("t", 0.0)) * _SEC_TO_US
        args = {
            key: value
            for key, value in sorted(event.items())
            if key not in ("t", "kind")
        }
        if kind == _trace.QUERY_OUTCOME:
            arrival = event.get("arrival")
            latency = event.get("latency")
            start_us = (
                float(arrival) * _SEC_TO_US
                if isinstance(arrival, (int, float))
                else t_us
            )
            dur_us = (
                max(float(latency), 0.0) * _SEC_TO_US
                if isinstance(latency, (int, float))
                else 0.0
            )
            out.append(
                {
                    "ph": "X",
                    "pid": _PID,
                    "tid": tid,
                    "ts": start_us,
                    "dur": dur_us,
                    "name": f"query:{event.get('outcome')}",
                    "cat": kind,
                    "args": args,
                }
            )
        elif kind == _trace.CONTROL_WINDOW:
            counters = {
                key: value
                for key, value in args.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            out.append(
                {
                    "ph": "C",
                    "pid": _PID,
                    "tid": tid,
                    "ts": t_us,
                    "name": "usm_window",
                    "cat": kind,
                    "args": counters,
                }
            )
        else:
            out.append(
                {
                    "ph": "i",
                    "pid": _PID,
                    "tid": tid,
                    "ts": t_us,
                    "s": "t",
                    "name": kind,
                    "cat": kind,
                    "args": args,
                }
            )
    return out


def write_chrome_trace(source: TraceSource, path: Union[str, Path]) -> int:
    """Write a Chrome trace-event JSON file; returns the event count."""
    events = chrome_trace_events(source)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    target.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")),
        encoding="utf-8",
    )
    return len(events)


def controller_rows(source: TraceSource) -> List[Dict[str, object]]:
    """``control.window`` snapshots as flat rows (one per window)."""
    rows: List[Dict[str, object]] = []
    for event in _event_dicts(source):
        if event.get("kind") != _trace.CONTROL_WINDOW:
            continue
        row: Dict[str, object] = {"t": event.get("t")}
        for key, value in event.items():
            if key in ("t", "kind"):
                continue
            if key == "signals" and isinstance(value, (list, tuple)):
                row[key] = "+".join(str(s) for s in value) or "none"
            else:
                row[key] = value
        rows.append(row)
    return rows


def write_controller_csv(source: TraceSource, path: Union[str, Path]) -> int:
    """Write the controller-window CSV; returns the row count."""
    rows = controller_rows(source)
    columns: List[str] = ["t"]
    seen = {"t"}
    for row in rows:
        for key in sorted(row):
            if key not in seen:
                seen.add(key)
                columns.append(key)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    target.write_text(buffer.getvalue(), encoding="utf-8")
    return len(rows)
