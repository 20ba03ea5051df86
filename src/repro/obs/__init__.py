"""Observability for the simulator and the UNIT feedback loop.

The paper's contribution is a *feedback* framework — admission control
and update-frequency modulation reacting to the monitored USM window —
and this package is the window into those per-decision signals:

``repro.obs.trace``
    A trace recorder with typed, slotted trace events (admission,
    outcome attribution, lock waits/preemptions, update apply/drop,
    modulation changes, controller window snapshots), recorded in
    **sim time** and stored in a bounded ring buffer.  The shared
    :data:`~repro.obs.trace.NULL_RECORDER` makes the disabled path a
    single attribute check on every instrumentation site.

``repro.obs.metrics``
    A metrics registry (counters, gauges, histograms with fixed bucket
    edges, keyed by name + frozen label tuples) built on the
    :mod:`repro.sim.stats` machinery.

``repro.obs.export``
    Exporters: JSONL trace dump, Chrome trace-event JSON (loadable in
    Perfetto), controller-window CSV, and a Prometheus-style text
    snapshot.

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
    render_prometheus,
    trace_digest,
    write_chrome_trace,
    write_controller_csv,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.logging_setup import configure_logging, get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, RunMetrics
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsConfig",
    "Recorder",
    "RunMetrics",
    "TraceEvent",
    "TraceRecorder",
    "chrome_trace_events",
    "configure_logging",
    "controller_rows",
    "get_logger",
    "render_prometheus",
    "trace_digest",
    "write_chrome_trace",
    "write_controller_csv",
    "write_prometheus",
    "write_trace_jsonl",
]
