"""Live sweep dashboard: stdlib HTTP + SSE, one self-contained page.

``run_grid`` / ``run_grid_parallel`` accept a ``dashboard`` object and
call :meth:`DashboardState.on_progress` after every finished cell (the
same signature as a progress callback).  The state folds each
:class:`~repro.experiments.runner.SimulationReport` into a JSON-able
snapshot — per-cell USM, outcome ratios, throughput, runner phase
timings, the controller's windowed-USM series for sparklines, and the
span wait-state breakdown when the report carries its events — and
publishes it to any connected Server-Sent-Events subscriber.

:class:`DashboardServer` serves three routes on a background thread:

=============  ========================================================
``/``          the dashboard page (self-contained HTML, no CDN)
``/state``     the current snapshot as JSON
``/events``    SSE stream: one ``data:`` frame per finished cell
=============  ========================================================

:func:`render_static_html` bakes the same page with the snapshot
embedded, so a finished sweep exports as a single HTML artifact (the
CI ``obs-dash-smoke`` job snapshots it) that renders without a server.

This module lives in a patrolled simulation component (simlint SF002),
so it never touches the wall clock: blocking uses
``threading.Event.wait`` and queue timeouts, and all displayed timings
come from the reports themselves.
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import json_sanitize
from repro.experiments.runner import SimulationReport
from repro.obs.logging_setup import get_logger

_log = get_logger(__name__)

#: Cap per-cell sparkline series (points are downsampled, never cut).
_SPARK_POINTS = 60

#: SSE keep-alive interval, seconds (queue timeout, not a clock read).
_SSE_PING_SECONDS = 15.0

#: Per-subscriber frame-queue bound.  Frames are *full-state* snapshots
#: (not deltas), so when a slow or stuck client falls behind, the oldest
#: queued frame is stale and can be dropped losslessly — the newest one
#: supersedes it.  Without the bound a dead-but-not-yet-detected client
#: accumulates one frame per finished cell for the whole sweep.
_SUBSCRIBER_QUEUE_FRAMES = 64

#: Socket send timeout for SSE handler threads, seconds.  A client that
#: stops reading (suspended laptop, wedged proxy) eventually blocks the
#: handler's ``wfile.write`` forever; the timeout turns that into an
#: ``OSError`` so the handler unsubscribes and exits instead of pinning
#: its queue (and thread) for the rest of the sweep.
_SSE_SEND_TIMEOUT_SECONDS = 20.0


def _downsample(series: List[float], limit: int = _SPARK_POINTS) -> List[float]:
    """Thin a series to at most ``limit`` points (every k-th, keep last)."""
    n = len(series)
    if n <= limit:
        return series
    step = n / limit
    out = [series[int(i * step)] for i in range(limit)]
    out[-1] = series[-1]
    return out


def _cell_payload(
    key: Tuple[str, str, str], report: SimulationReport
) -> Dict[str, object]:
    """One finished cell as a JSON-able dict."""
    policy, trace, profile_name = key
    wall = report.wall_seconds
    payload: Dict[str, object] = {
        "key": "/".join(key),
        "policy": policy,
        "trace": trace,
        "profile": profile_name,
        "usm": report.usm,
        "queries": report.queries_submitted,
        "ratios": {
            outcome.value: ratio for outcome, ratio in report.ratios.items()
        },
        "throughput": (report.queries_submitted / wall) if wall > 0 else None,
        "wall_seconds": wall,
        "phase_seconds": report.phase_seconds,
    }
    events = report.obs_events
    if events:
        usm_series = [
            float(event["usm"])
            for event in events
            if event.get("kind") == "control.window"
            and isinstance(event.get("usm"), (int, float))
        ]
        if usm_series:
            payload["usm_series"] = _downsample(usm_series)
        # Span wait-state breakdown (shares of lifecycle time).  Import
        # here to keep the dashboard usable without the span stack.
        from repro.obs.attrib import wait_breakdown
        from repro.obs.spans import build_spans

        result = build_spans(events)
        breakdown = wait_breakdown(result.spans)
        payload["waits"] = breakdown["shares"]
        payload["preemptions"] = breakdown["preemptions"]
        payload["restarts"] = breakdown["restarts"]
        payload["spans_partial"] = result.partial
    return payload


class DashboardState:
    """Thread-safe sweep progress; the model behind every route.

    Use an instance as the ``dashboard`` argument of
    :func:`repro.experiments.sweep.run_grid` — the sweep calls
    :meth:`on_progress` from whatever thread runs the cells; HTTP
    handler threads read snapshots concurrently.
    """

    def __init__(self, title: str = "repro sweep") -> None:
        self.title = title
        self._lock = threading.Lock()
        self._cells: List[Dict[str, object]] = []
        self._done = 0
        self._total = 0
        self._subscribers: List["queue.Queue[Optional[str]]"] = []

    # -- sweep side -----------------------------------------------------

    def on_progress(
        self,
        key: Tuple[str, str, str],
        report: SimulationReport,
        done: int,
        total: int,
    ) -> None:
        """Fold one finished cell in and notify SSE subscribers."""
        payload = _cell_payload(key, report)
        with self._lock:
            self._cells.append(payload)
            self._done = done
            self._total = total
        self._publish()

    # -- reader side ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The current state as a JSON-able dict."""
        with self._lock:
            return {
                "title": self.title,
                "done": self._done,
                "total": self._total,
                "complete": self._total > 0 and self._done >= self._total,
                "cells": list(self._cells),
            }

    def snapshot_json(self) -> str:
        return json.dumps(
            json_sanitize(self.snapshot()), sort_keys=True, separators=(",", ":")
        )

    # -- SSE plumbing ---------------------------------------------------

    def subscribe(self) -> "queue.Queue[Optional[str]]":
        subscriber: "queue.Queue[Optional[str]]" = queue.Queue(
            maxsize=_SUBSCRIBER_QUEUE_FRAMES
        )
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue[Optional[str]]") -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    @staticmethod
    def _offer(
        subscriber: "queue.Queue[Optional[str]]", frame: Optional[str]
    ) -> None:
        """Enqueue a frame, evicting the stalest one when full.

        Frames are complete snapshots, so drop-oldest is lossless for
        any reader that eventually catches up — and it means a stuck
        subscriber can never make ``on_progress`` (the sweep thread)
        block or grow without bound.
        """
        while True:
            try:
                subscriber.put_nowait(frame)
                return
            except queue.Full:
                try:
                    subscriber.get_nowait()
                except queue.Empty:  # raced with the consumer: retry put
                    continue

    def _publish(self) -> None:
        frame = self.snapshot_json()
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            self._offer(subscriber, frame)

    def close(self) -> None:
        """Tell every subscriber the stream is over."""
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            self._offer(subscriber, None)


def _make_handler(state: DashboardState) -> type:
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            _log.debug("dash: %s", format % args)

        def _send(self, status: int, content_type: str, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            path = self.path.split("?", 1)[0]
            if path == "/":
                page = render_page(state.snapshot_json(), live=True)
                self._send(200, "text/html; charset=utf-8", page.encode("utf-8"))
            elif path == "/state":
                self._send(
                    200,
                    "application/json",
                    state.snapshot_json().encode("utf-8"),
                )
            elif path == "/events":
                self._serve_events()
            else:
                self._send(404, "text/plain; charset=utf-8", b"not found\n")

        def _serve_events(self) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            # A client that stops *reading* (without closing) would
            # otherwise block a send forever, pinning this handler and
            # its subscriber queue for the rest of the sweep.
            self.connection.settimeout(_SSE_SEND_TIMEOUT_SECONDS)
            subscriber = state.subscribe()
            try:
                # Replay the current state so late joiners render now.
                self._frame(state.snapshot_json())
                while True:
                    try:
                        frame = subscriber.get(timeout=_SSE_PING_SECONDS)
                    except queue.Empty:
                        self.wfile.write(b": ping\n\n")
                        self.wfile.flush()
                        continue
                    if frame is None:
                        break
                    self._frame(frame)
            except OSError:
                # Client went away (broken pipe / reset) or stopped
                # reading (send timeout): release the subscription
                # either way so long sweeps don't accumulate dead
                # queues.  BrokenPipeError, ConnectionResetError, and
                # socket.timeout are all OSError subclasses.
                pass
            finally:
                state.unsubscribe(subscriber)

        def _frame(self, payload: str) -> None:
            self.wfile.write(b"data: " + payload.encode("utf-8") + b"\n\n")
            self.wfile.flush()

    return _Handler


class DashboardServer:
    """Background-thread HTTP server for a :class:`DashboardState`."""

    def __init__(
        self,
        state: DashboardState,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = state
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(state))
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def start(self) -> "DashboardServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="obs-dash",
            daemon=True,
        )
        self._thread.start()
        _log.info("dashboard serving at %s", self.url)
        return self

    def stop(self) -> None:
        self.state.close()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def render_static_html(state: DashboardState) -> str:
    """The dashboard page with the snapshot baked in (no server)."""
    return render_page(state.snapshot_json(), live=False)


def render_page(state_json: str, live: bool) -> str:
    """Assemble the self-contained page around a state snapshot."""
    # "</" would close the script element mid-JSON.
    safe_state = state_json.replace("</", "<\\/")
    return (
        _PAGE_TEMPLATE.replace("__LIVE__", "true" if live else "false").replace(
            "__STATE__", safe_state
        )
    )


_PAGE_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro sweep dashboard</title>
<style>
  :root {
    --bg: #11161d; --panel: #1a212b; --ink: #dbe4ee; --dim: #8294a8;
    --line: #2a3442; --good: #4cc38a; --warn: #e5a50a; --bad: #e0565b;
    --accent: #5ea1f7;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--ink);
         font: 14px/1.45 ui-monospace, "SF Mono", Menlo, Consolas, monospace; }
  header { padding: 16px 22px 10px; border-bottom: 1px solid var(--line); }
  h1 { margin: 0 0 6px; font-size: 17px; font-weight: 600; }
  .sub { color: var(--dim); font-size: 12px; }
  .progress { height: 8px; background: var(--line); border-radius: 4px;
              margin-top: 10px; overflow: hidden; }
  .progress > div { height: 100%; background: var(--accent);
                    transition: width .3s; }
  main { padding: 16px 22px; }
  table { border-collapse: collapse; width: 100%; }
  th { text-align: left; color: var(--dim); font-weight: 500;
       font-size: 12px; padding: 6px 10px; border-bottom: 1px solid var(--line); }
  td { padding: 6px 10px; border-bottom: 1px solid var(--line);
       vertical-align: middle; white-space: nowrap; }
  tr:hover td { background: var(--panel); }
  .usm { font-weight: 600; }
  .bar { display: inline-block; height: 9px; border-radius: 2px;
         background: var(--accent); vertical-align: middle; }
  .stack { display: inline-flex; width: 120px; height: 9px;
           border-radius: 2px; overflow: hidden; vertical-align: middle; }
  .stack i { display: block; height: 100%; }
  svg.spark { vertical-align: middle; }
  .legend { margin: 14px 0 6px; color: var(--dim); font-size: 12px; }
  .legend i { display: inline-block; width: 9px; height: 9px;
              border-radius: 2px; margin: 0 4px 0 10px; vertical-align: -1px; }
  .pill { font-size: 11px; border: 1px solid var(--line); border-radius: 8px;
          padding: 0 6px; color: var(--dim); margin-left: 6px; }
  .empty { color: var(--dim); padding: 30px 0; text-align: center; }
  #agg { margin-top: 18px; padding: 12px 14px; background: var(--panel);
         border: 1px solid var(--line); border-radius: 6px; max-width: 560px; }
  #agg h2 { margin: 0 0 8px; font-size: 13px; color: var(--dim);
            font-weight: 500; }
  .aggrow { display: flex; align-items: center; margin: 3px 0; }
  .aggrow span { width: 110px; color: var(--dim); font-size: 12px; }
  .aggrow b { font-size: 12px; margin-left: 8px; font-weight: 500; }
</style>
</head>
<body>
<header>
  <h1 id="title">repro sweep</h1>
  <div class="sub" id="status">waiting for cells…</div>
  <div class="progress"><div id="pbar" style="width:0%"></div></div>
</header>
<main>
  <div class="legend">
    outcomes: <i style="background:var(--good)"></i>success
    <i style="background:var(--accent)"></i>reject
    <i style="background:var(--bad)"></i>dmf
    <i style="background:var(--warn)"></i>dsf
    &nbsp;&nbsp;waits: <i style="background:#7d8ea3"></i>queued
    <i style="background:#b07cc6"></i>lock
    <i style="background:#46b1c9"></i>refresh
    <i style="background:#4cc38a"></i>exec
  </div>
  <div id="cells"></div>
  <div id="agg" hidden><h2>pooled wait breakdown (time share)</h2>
    <div id="aggbody"></div></div>
</main>
<script>
"use strict";
const LIVE = __LIVE__;
let STATE = __STATE__;

const OUT_COLORS = {success:"var(--good)", rejected:"var(--accent)",
                    dmf:"var(--bad)", dsf:"var(--warn)"};
const WAIT_COLORS = {"queued":"#7d8ea3", "lock-wait":"#b07cc6",
                     "refresh-wait":"#46b1c9", "executing":"#4cc38a"};
const WAIT_ORDER = ["queued", "lock-wait", "refresh-wait", "executing"];

function fmt(x, digits) {
  return (x === null || x === undefined) ? "-" : Number(x).toFixed(digits);
}

function stack(parts, colors, width) {
  let html = '<span class="stack" style="width:' + width + 'px">';
  for (const [name, frac] of parts) {
    const w = Math.max(0, frac * 100);
    html += '<i style="width:' + w + '%;background:' + colors[name] + '"></i>';
  }
  return html + "</span>";
}

function spark(series, w, h) {
  if (!series || series.length < 2) return "";
  const min = Math.min(...series), max = Math.max(...series);
  const span = (max - min) || 1;
  const pts = series.map((v, i) =>
    (i / (series.length - 1) * (w - 2) + 1).toFixed(1) + "," +
    ((1 - (v - min) / span) * (h - 2) + 1).toFixed(1)).join(" ");
  return '<svg class="spark" width="' + w + '" height="' + h + '">' +
    '<polyline points="' + pts + '" fill="none" stroke="var(--accent)"' +
    ' stroke-width="1.2"/></svg>';
}

function render() {
  const s = STATE || {cells: [], done: 0, total: 0};
  document.getElementById("title").textContent = s.title || "repro sweep";
  const pct = s.total ? (100 * s.done / s.total) : 0;
  document.getElementById("pbar").style.width = pct + "%";
  document.getElementById("status").textContent =
    s.total ? (s.done + " / " + s.total + " cells" +
               (s.complete ? " — complete" : " — running…")) :
              "waiting for cells…";

  const cells = s.cells || [];
  const host = document.getElementById("cells");
  if (!cells.length) {
    host.innerHTML = '<div class="empty">no finished cells yet</div>';
    document.getElementById("agg").hidden = true;
    return;
  }
  const usms = cells.map(c => c.usm);
  const lo = Math.min(0, ...usms), hi = Math.max(...usms, 1e-9);
  let html = "<table><tr><th>cell</th><th>USM</th><th></th>" +
    "<th>outcomes</th><th>waits</th><th>USM window</th>" +
    "<th>q/s</th><th>wall</th></tr>";
  for (const c of cells) {
    const w = Math.max(2, 90 * (c.usm - lo) / (hi - lo || 1));
    const outs = Object.entries(c.ratios || {})
      .filter(([k]) => OUT_COLORS[k]).sort();
    const waits = c.waits ?
      WAIT_ORDER.map(k => [k, c.waits[k] || 0]) : null;
    html += "<tr><td>" + c.key +
      (c.spans_partial ? ' <span class="pill">partial</span>' : "") +
      "</td><td class=\\"usm\\">" + fmt(c.usm, 4) + "</td>" +
      '<td><span class="bar" style="width:' + w + 'px"></span></td>' +
      "<td>" + stack(outs, OUT_COLORS, 120) + "</td>" +
      "<td>" + (waits ? stack(waits, WAIT_COLORS, 120) : "-") + "</td>" +
      "<td>" + spark(c.usm_series, 140, 26) + "</td>" +
      "<td>" + (c.throughput ? fmt(c.throughput, 0) : "-") + "</td>" +
      "<td>" + fmt(c.wall_seconds, 2) + "s</td></tr>";
  }
  host.innerHTML = html + "</table>";

  const withWaits = cells.filter(c => c.waits);
  const agg = document.getElementById("agg");
  if (withWaits.length) {
    agg.hidden = false;
    const sums = {};
    for (const k of WAIT_ORDER) sums[k] = 0;
    for (const c of withWaits)
      for (const k of WAIT_ORDER) sums[k] += (c.waits[k] || 0);
    let body = "";
    for (const k of WAIT_ORDER) {
      const frac = sums[k] / withWaits.length;
      body += '<div class="aggrow"><span>' + k + "</span>" +
        '<span class="bar" style="width:' + (300 * frac) +
        "px;background:" + WAIT_COLORS[k] + '"></span><b>' +
        (100 * frac).toFixed(1) + "%</b></div>";
    }
    document.getElementById("aggbody").innerHTML = body;
  } else {
    agg.hidden = true;
  }
}

render();
if (LIVE && window.EventSource) {
  const source = new EventSource("/events");
  source.onmessage = (msg) => { STATE = JSON.parse(msg.data); render(); };
  source.onerror = () => { /* sweep over or server gone: keep last state */ };
}
</script>
</body>
</html>
"""
