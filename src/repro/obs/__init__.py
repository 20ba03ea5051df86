"""Observability for the simulator and the UNIT feedback loop.

The paper's contribution is a *feedback* framework — admission control
and update-frequency modulation reacting to the monitored USM window —
and this package is the window into those per-decision signals:

``repro.obs.trace``
    A trace recorder with typed, slotted trace events (admission,
    outcome attribution, 2PL-HP preemptions, update apply/drop,
    modulation changes, controller window snapshots), recorded in
    **sim time** and stored in a bounded ring buffer.  The shared
    :data:`~repro.obs.trace.NULL_RECORDER` makes the disabled path a
    single attribute check on every instrumentation site.  Each event
    also goes to the recorder's sinks; an observed run has one, the
    span fold of :mod:`repro.obs.spans`, which sees every event
    however small the ring.

``repro.obs.export``
    Exporters: JSONL trace dump, Chrome trace-event JSON (loadable in
    Perfetto), and controller-window CSV.

``repro.obs.logging_setup``
    Quiet-by-default ``logging`` configuration shared by every CLI.

``python -m repro.obs``
    Summarize, filter, or convert a recorded trace; ``smoke`` runs one
    instrumented cell end to end and exports every artifact.

The cardinal rule: observability must never change simulation results.
Recorders only *observe* (no RNG draws, no extra simulator events), and
every timestamp is simulated time — simlint's SF002 patrols this
package for wall-clock reads like any other simulation component.
"""

from repro.obs.config import ObsConfig
from repro.obs.export import (
    chrome_trace_events,
    controller_rows,
    trace_digest,
    write_chrome_trace,
    write_controller_csv,
    write_trace_jsonl,
)
from repro.obs.logging_setup import configure_logging, get_logger
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "ObsConfig",
    "Recorder",
    "TraceEvent",
    "TraceRecorder",
    "chrome_trace_events",
    "configure_logging",
    "controller_rows",
    "get_logger",
    "trace_digest",
    "write_chrome_trace",
    "write_controller_csv",
    "write_trace_jsonl",
]
