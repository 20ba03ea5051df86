"""ASCII rendering of tables and bar series, plus JSON-safe helpers.

The harness prints the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and readable in a
terminal or a log file.  :func:`json_sanitize` guards the JSON-report
path: ``json.dumps`` happily emits the bare tokens ``Infinity``/``NaN``
(invalid JSON to strict parsers), which is what an empty stream's
±inf min/max sentinels would leak (:meth:`OnlineStats.as_dict
<repro.sim.stats.OnlineStats.as_dict>` already maps them to ``None``).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence


def stable_report_bytes(report: object) -> bytes:
    """Canonical serialization of everything a figure could read.

    The byte-identity contract of the determinism regression suite (and
    the fleet 1-shard-equivalence gate): two reports serialize equal
    iff every *result* field matches bit-for-bit.  Host-timing fields
    (``wall_seconds``, ``phase_seconds``) and the observability payload
    are deliberately excluded — they are reporting metadata, never an
    input to results.  Floats are rendered with ``float.hex()`` (exact
    bits, not a rounding).
    """
    by_name = lambda kv: kv[0].value  # noqa: E731
    payload = {
        "policy": report.policy_name,  # type: ignore[attr-defined]
        "counts": {
            o.value: n
            for o, n in sorted(report.outcome_counts.items(), key=by_name)  # type: ignore[attr-defined]
        },
        "submitted": report.queries_submitted,  # type: ignore[attr-defined]
        "usm": report.usm.hex(),  # type: ignore[attr-defined]
        "total_usm": report.total_usm.hex(),  # type: ignore[attr-defined]
        "ratios": {
            o.value: r.hex()
            for o, r in sorted(report.ratios.items(), key=by_name)  # type: ignore[attr-defined]
        },
        "components": {
            k: v.hex() for k, v in sorted(report.components.items())  # type: ignore[attr-defined]
        },
        "update_arrivals": report.update_arrivals,  # type: ignore[attr-defined]
        "updates_executed": report.updates_executed,  # type: ignore[attr-defined]
        "updates_dropped": report.updates_dropped,  # type: ignore[attr-defined]
        "query_access_counts": report.query_access_counts,  # type: ignore[attr-defined]
        "update_counts_original": report.update_counts_original,  # type: ignore[attr-defined]
        "update_counts_executed": report.update_counts_executed,  # type: ignore[attr-defined]
        "busy": {
            k: v.hex() for k, v in sorted(report.busy_by_class.items())  # type: ignore[attr-defined]
        },
        "events_fired": report.events_fired,  # type: ignore[attr-defined]
        "summary": report.summary(),  # type: ignore[attr-defined]
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def stable_report_digest(report: object) -> str:
    """SHA-256 hex digest of :func:`stable_report_bytes`."""
    return hashlib.sha256(stable_report_bytes(report)).hexdigest()


def json_sanitize(value: object) -> object:
    """Recursively replace non-finite floats with ``None`` (→ ``null``).

    Dicts and lists/tuples are rebuilt; every other value passes
    through untouched.  Run over any payload headed for ``json.dump``
    so empty-stream ±inf sentinels and NaNs never reach a report file.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_sanitize(item) for item in value]
    return value


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def bar_chart(
    series: Dict[str, float],
    title: Optional[str] = None,
    width: int = 40,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Render a horizontal bar chart of labeled values.

    Values may be negative (USM can be); bars grow from the axis at the
    minimum of 0 and ``lo``.
    """
    if not series:
        return title or ""
    values = list(series.values())
    low = min(0.0, min(values) if lo is None else lo)
    high = max(values) if hi is None else hi
    span = max(high - low, 1e-9)
    label_width = max(len(label) for label in series)

    out: List[str] = []
    if title:
        out.append(title)
    for label, value in series.items():
        filled = int(round((value - low) / span * width))
        bar = "#" * filled
        out.append(f"{label.ljust(label_width)}  {value:+.4f}  |{bar}")
    return "\n".join(out)


def degradation_table(degradation: Dict[str, object]) -> str:
    """Render one run's fault-degradation metrics as an ASCII table.

    Takes the dict produced by
    :func:`repro.faults.metrics.degradation_metrics` (also carried on
    ``SimulationReport.degradation``): one row per fault window with
    the pre-fault baseline, dip depth, time below band, and recovery
    time ("-" when the series never re-entered the band).
    """
    windows = degradation.get("windows")
    rows: List[List[object]] = []
    if isinstance(windows, list):
        for window in windows:
            rows.append(
                [
                    window["label"],
                    window["kind"],
                    window["start"],
                    window["end"],
                    "-" if window["baseline_usm"] is None else window["baseline_usm"],
                    "-" if window["dip_depth"] is None else window["dip_depth"],
                    window["time_below"],
                    "-" if window["recovery_time"] is None else window["recovery_time"],
                ]
            )
    return ascii_table(
        [
            "window",
            "kind",
            "start",
            "end",
            "baseline",
            "dip depth",
            "below band (s)",
            "recovery (s)",
        ],
        rows,
        title=f"Degradation: scenario '{degradation.get('scenario', '?')}'"
        f" (band ±{float(degradation.get('band', 0.0)):.4f})",  # type: ignore[arg-type]
    )


def decile_histogram(counts: Sequence[int], buckets: int = 10) -> List[int]:
    """Aggregate a per-item histogram into ``buckets`` contiguous id
    ranges (Fig. 3 is too wide to print item by item)."""
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    n = len(counts)
    if n == 0:
        return [0] * buckets
    result = [0] * buckets
    for index, value in enumerate(counts):
        bucket = min(buckets - 1, index * buckets // n)
        result[bucket] += value
    return result
