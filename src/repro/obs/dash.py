"""Static sweep page: one self-contained HTML file per finished grid.

:func:`render_dashboard` folds the reports that
:func:`repro.experiments.sweep.run_grid` returns into a JSON-able
snapshot — per-cell USM, outcome ratios, throughput, runner phase
timings, the controller's windowed-USM series for sparklines when the
report carries its events, and the span wait-state breakdown of its
``obs_spans`` — and
bakes it into a page that renders without a server or a CDN (the CI
``obs-dash-smoke`` job uploads it).  Cells appear in the grid order of
the reports dict, so serial and pooled sweeps give the same page apart
from wall-clock figures.

This module lives in a patrolled simulation component (simlint SF002),
so it never touches the wall clock: all displayed timings come from
the reports themselves.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Tuple

from repro.experiments.report import json_sanitize
from repro.experiments.runner import SimulationReport

#: Cap per-cell sparkline series (points are downsampled, never cut).
_SPARK_POINTS = 60


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
    spans = report.obs_spans
    if spans:
        # The run's span wait-state breakdown (shares of lifecycle time).
        breakdown = spans["waits"]
        payload["waits"] = breakdown["shares"]  # type: ignore[index]
        payload["preemptions"] = breakdown["preemptions"]  # type: ignore[index]
        payload["restarts"] = breakdown["restarts"]  # type: ignore[index]
        payload["spans_partial"] = spans["summary"]["partial"]  # type: ignore[index]
    return payload


def render_dashboard(
    title: str, reports: Mapping[Tuple[str, str, str], SimulationReport]
) -> str:
    """The sweep page for a finished grid, keyed as ``run_grid`` keys it."""
    cells = [_cell_payload(key, report) for key, report in reports.items()]
    snapshot = {
        "title": title,
        "done": len(cells),
        "total": len(cells),
        "complete": bool(cells),
        "cells": cells,
    }
    state_json = json.dumps(
        json_sanitize(snapshot), sort_keys=True, separators=(",", ":")
    )
    # "</" would close the script element mid-JSON.
    return _PAGE_TEMPLATE.replace("__STATE__", state_json.replace("</", "<\\/"))


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
  .progress > div { height: 100%; background: var(--accent); }
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
  <div class="sub" id="status"></div>
  <div class="progress"><div id="pbar" style="width:0%"></div></div>
</header>
<main>
  <div class="legend">
    outcomes: <i style="background:var(--good)"></i>success
    <i style="background:var(--accent)"></i>reject
    <i style="background:var(--bad)"></i>dmf
    <i style="background:var(--warn)"></i>dsf
    &nbsp;&nbsp;waits: <i style="background:#7d8ea3"></i>queued
    <i style="background:#46b1c9"></i>refresh
    <i style="background:#4cc38a"></i>exec
  </div>
  <div id="cells"></div>
  <div id="agg" hidden><h2>pooled wait breakdown (time share)</h2>
    <div id="aggbody"></div></div>
</main>
<script>
"use strict";
const STATE = __STATE__;

const OUT_COLORS = {success:"var(--good)", rejected:"var(--accent)",
                    dmf:"var(--bad)", dsf:"var(--warn)"};
const WAIT_COLORS = {"queued":"#7d8ea3", "refresh-wait":"#46b1c9",
                     "executing":"#4cc38a"};
const WAIT_ORDER = ["queued", "refresh-wait", "executing"];

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
  const s = STATE;
  document.getElementById("title").textContent = s.title || "repro sweep";
  const pct = s.total ? (100 * s.done / s.total) : 0;
  document.getElementById("pbar").style.width = pct + "%";
  document.getElementById("status").textContent =
    s.done + " / " + s.total + " cells";

  const cells = s.cells || [];
  const host = document.getElementById("cells");
  if (!cells.length) {
    host.innerHTML = '<div class="empty">no cells</div>';
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
</script>
</body>
</html>
"""
