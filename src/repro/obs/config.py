"""Per-run observability configuration.

An :class:`ObsConfig` rides on ``ExperimentConfig.obs`` (default
``None`` — fully disabled, null-recorder path).  The runner derives
per-cell export paths from ``out_dir`` and the cell label so parallel
sweep workers never collide on a file.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from typing import Optional

_LABEL_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_label(label: str) -> str:
    """Make an experiment label safe to use as a file-name stem."""
    cleaned = _LABEL_SANITIZER.sub("-", label).strip("-")
    return cleaned or "cell"


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """What to record and where to export it.

    Attributes:
        enabled: Master switch; when False the run uses the shared
            null recorder and none of the other fields matter.
        capacity: Trace ring-buffer size (events); oldest events are
            evicted (and counted) beyond this.  The ring exists only for
            its readers, the exports and ``keep_events``: a run with
            neither builds none and keeps no event.
        metrics: Ignored; no instance stores it.  Accepted only because
            the benchmark's ``observed_unit`` workload still passes
            ``metrics=True``; the next benchmark change removes it.
        keep_events: Keep the ring and attach its flattened event
            dicts to the ``SimulationReport`` (for tests/CLI use;
            large).
        spans: Fold every recorded event into query-lifecycle spans as
            the run records (:class:`repro.obs.spans.SpanFold`, a sink
            of the recorder, so the spans are complete whatever
            ``capacity`` is), feed each span to the attribution
            accumulator as it closes, and attach the span summary and
            wait-attribution digest to ``SimulationReport.obs_spans``.
            The span objects are kept only when ``out_dir`` asks for
            the spans JSONL.
        out_dir: Directory for per-cell exports.  When set, the runner
            writes ``<stem>.trace.jsonl``, ``<stem>.chrome.json``,
            ``<stem>.controller.csv`` and (with ``spans``)
            ``<stem>.spans.jsonl`` where ``<stem>`` is the sanitized
            cell label + seed.
    """

    enabled: bool = True
    capacity: int = 262_144
    metrics: dataclasses.InitVar[bool] = True
    keep_events: bool = False
    spans: bool = True
    out_dir: Optional[str] = None

    def __post_init__(self, metrics: bool) -> None:
        if self.capacity <= 0:  # checked here too: a run without a reader builds no ring
            raise ValueError("capacity must be positive")

    def export_paths(self, label: str, seed: int) -> dict:
        """Resolve the artifact paths for one cell under ``out_dir``
        (``{}`` when no ``out_dir`` is set)."""
        if self.out_dir is None:
            return {}
        stem = f"{sanitize_label(label)}.seed{seed}"
        base = Path(self.out_dir)
        return {
            "trace_jsonl": base / f"{stem}.trace.jsonl",
            "chrome_json": base / f"{stem}.chrome.json",
            "controller_csv": base / f"{stem}.controller.csv",
            "spans_jsonl": base / f"{stem}.spans.jsonl",
        }
