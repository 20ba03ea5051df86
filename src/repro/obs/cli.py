"""``python -m repro.obs``: summarize, filter, or convert a trace.

Subcommands::

    summary     per-kind counts and the time span of a JSONL trace
    filter      select events by kind / time range (JSONL in, JSONL out)
    chrome      convert a JSONL trace to Chrome trace-event JSON
    controller  extract control.window snapshots as CSV
    digest      SHA-256 of the canonical JSONL bytes
    spans       fold a trace into query-lifecycle spans (JSONL out)
    attrib      wait-time attribution + USM-loss ledger tables
    dash        run a sweep and export its page as a static HTML
                artifact (used by CI)
    smoke       run one instrumented cell end to end and export
                every artifact (used by CI)

Everything consumes the JSONL dump written by
:func:`repro.obs.export.write_trace_jsonl` (one flattened event per
line), so traces can be post-processed long after the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.config import POLICIES, SCALES
from repro.obs.export import (
    render_trace_jsonl,
    trace_digest,
    write_chrome_trace,
    write_controller_csv,
    write_trace_jsonl,
)
from repro.obs.logging_setup import (
    add_verbosity_flags,
    configure_logging,
    verbosity_from_args,
)
from repro.workload.updates import STANDARD_UPDATE_TRACES


def _load_events(path: str) -> List[Dict[str, object]]:
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: not valid JSON: {exc}")
            if not isinstance(event, dict):
                raise SystemExit(f"{path}:{lineno}: expected a JSON object")
            events.append(event)
    return events


def _truncation_warning(events: List[Dict[str, object]]) -> Optional[str]:
    """Warning text when the trace carries a ``trace.meta`` header
    reporting ring-buffer drops (the stream is incomplete)."""
    for event in events:
        if event.get("kind") != "trace.meta":
            continue
        dropped = event.get("dropped")
        if isinstance(dropped, int) and dropped > 0:
            return (
                f"WARNING: trace is truncated — the recorder ring dropped "
                f"{dropped} events (oldest first); analyses over this file "
                "are partial"
            )
    return None


def _cmd_summary(args: argparse.Namespace) -> int:
    events = _load_events(args.trace)
    by_kind: Dict[str, int] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for event in events:
        kind = str(event.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
    print(f"{args.trace}: {len(events)} events")
    warning = _truncation_warning(events)
    if warning is not None:
        print(f"  {warning}", file=sys.stderr)
    if t_min is not None and t_max is not None:
        print(f"  sim-time span: {t_min:.3f}s .. {t_max:.3f}s")
    for kind in sorted(by_kind):
        print(f"  {kind:<22} {by_kind[kind]}")
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    events = _load_events(args.trace)
    kinds = set(args.kind or [])

    def keep(event: Dict[str, object]) -> bool:
        if kinds and event.get("kind") not in kinds:
            return False
        t = event.get("t")
        if isinstance(t, (int, float)):
            if args.since is not None and t < args.since:
                return False
            if args.until is not None and t > args.until:
                return False
        return True

    selected = [event for event in events if keep(event)]
    if args.out:
        count = write_trace_jsonl(selected, args.out)
        print(f"wrote {count} of {len(events)} events to {args.out}")
    else:
        sys.stdout.write(render_trace_jsonl(selected))
    return 0


def _cmd_chrome(args: argparse.Namespace) -> int:
    events = _load_events(args.trace)
    count = write_chrome_trace(events, args.out)
    print(f"wrote {count} Chrome trace events to {args.out}")
    return 0


def _cmd_controller(args: argparse.Namespace) -> int:
    events = _load_events(args.trace)
    count = write_controller_csv(events, args.out)
    print(f"wrote {count} controller-window rows to {args.out}")
    return 0


def _cmd_digest(args: argparse.Namespace) -> int:
    print(f"{trace_digest(_load_events(args.trace))}  {args.trace}")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs.spans import build_spans, render_spans_jsonl, write_spans_jsonl

    events = _load_events(args.trace)
    warning = _truncation_warning(events)
    if warning is not None:
        print(warning, file=sys.stderr)
    result = build_spans(events)
    if args.out:
        count = write_spans_jsonl(result, args.out)
        print(f"wrote {count} spans to {args.out}")
    else:
        sys.stdout.write(render_spans_jsonl(result))
    summary = result.summary()
    if result.partial:
        print(
            f"note: span output is PARTIAL (trace dropped {result.dropped} "
            "events)",
            file=sys.stderr,
        )
    if summary["skipped"]:
        print(f"note: skipped events {summary['skipped']}", file=sys.stderr)
    return 0


def _cmd_attrib(args: argparse.Namespace) -> int:
    from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
    from repro.obs.attrib import (
        attrib_report,
        ledger_table,
        percentile_table,
        wait_table,
    )
    from repro.obs.spans import build_spans

    if args.profile == "naive":
        profile = PenaltyProfile.naive()
    elif args.profile in TABLE2_PROFILES:
        profile = TABLE2_PROFILES[args.profile]
    else:
        choices = ", ".join(["naive"] + sorted(TABLE2_PROFILES))
        raise SystemExit(f"unknown profile {args.profile!r} (choices: {choices})")

    events = _load_events(args.trace)
    warning = _truncation_warning(events)
    if warning is not None:
        print(warning, file=sys.stderr)
    result = build_spans(events)
    report = attrib_report(result.spans, profile)
    title_suffix = " (PARTIAL trace)" if result.partial else ""
    print(wait_table(report["waits"], title=f"Wait breakdown{title_suffix}"))
    print()
    print(percentile_table(report["percentiles"]))
    print()
    print(ledger_table(report["ledger"]))
    if args.json:
        from repro.experiments.report import json_sanitize

        report["spans_summary"] = result.summary()
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json.dumps(json_sanitize(report), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        print(f"wrote JSON report to {args.json}")
    return 0


def _names(allowed: Sequence[str]) -> Callable[[str], List[str]]:
    """An argparse ``type`` for a comma list whose every name is one of
    ``allowed``; an empty list or an unknown name is a usage error."""

    def parse(text: str) -> List[str]:
        names = [name.strip() for name in text.split(",") if name.strip()]
        if not names:
            raise argparse.ArgumentTypeError(f"no name in {text!r}")
        for name in names:
            if name not in allowed:
                choices = ", ".join(repr(choice) for choice in allowed)
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {name!r} (choose from {choices})"
                )
        return names

    return parse


def _cmd_dash(args: argparse.Namespace) -> int:
    # Heavy imports deferred, as in smoke.
    from repro.core.usm import PenaltyProfile
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.sweep import run_grid
    from repro.obs.config import ObsConfig
    from repro.obs.dash import render_dashboard

    policies = args.policies
    traces = args.traces
    scale = SCALES[args.scale]
    base = ExperimentConfig(
        policy=policies[0],
        update_trace=traces[0],
        seed=args.seed,
        scale=scale,
        obs=ObsConfig(enabled=True, keep_events=True),
    )
    reports = run_grid(
        policies,
        traces,
        [PenaltyProfile.naive()],
        scale,
        seed=args.seed,
        base=base,
    )
    title = f"{args.scale} sweep: {','.join(policies)} × {','.join(traces)}"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(title, reports), encoding="utf-8")
    print(f"wrote static dashboard to {out}")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    # Imported here: the experiments stack is heavy and the other
    # subcommands are pure trace-file plumbing.
    from repro.experiments.config import ExperimentConfig
    from repro.obs.config import ObsConfig

    from repro.experiments.runner import run_experiment

    out_dir = Path(args.out)
    config = ExperimentConfig(
        policy=args.policy,
        update_trace=args.trace,
        seed=args.seed,
        scale=SCALES[args.scale],
        obs=ObsConfig(enabled=True, out_dir=str(out_dir)),
    )
    report = run_experiment(config)
    print(report.summary())
    if report.obs_summary is not None:
        recorded = report.obs_summary.get("recorded")
        dropped = report.obs_summary.get("dropped")
        print(f"trace: {recorded} events recorded, {dropped} dropped")
    artifacts = sorted(out_dir.glob("*")) if out_dir.exists() else []
    for artifact in artifacts:
        print(f"artifact: {artifact}")
    return 0 if artifacts else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, filter, or convert a recorded simulation trace.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="per-kind counts and time span")
    p.add_argument("trace", help="JSONL trace file")
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("filter", help="select events by kind / time range")
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument(
        "--kind", action="append", help="keep only this kind (repeatable)"
    )
    p.add_argument("--since", type=float, help="keep events at or after this sim time")
    p.add_argument("--until", type=float, help="keep events at or before this sim time")
    p.add_argument("--out", help="write JSONL here instead of stdout")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("chrome", help="convert to Chrome trace-event JSON")
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("--out", required=True, help="output .json path")
    p.set_defaults(func=_cmd_chrome)

    p = sub.add_parser("controller", help="extract control.window rows as CSV")
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("--out", required=True, help="output .csv path")
    p.set_defaults(func=_cmd_controller)

    p = sub.add_parser("digest", help="SHA-256 of the canonical JSONL bytes")
    p.add_argument("trace", help="JSONL trace file")
    p.set_defaults(func=_cmd_digest)

    p = sub.add_parser(
        "spans", help="fold a trace into query-lifecycle spans (JSONL)"
    )
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument("--out", help="write span JSONL here instead of stdout")
    p.set_defaults(func=_cmd_spans)

    p = sub.add_parser(
        "attrib", help="wait-time attribution + USM-loss ledger tables"
    )
    p.add_argument("trace", help="JSONL trace file")
    p.add_argument(
        "--profile",
        default="naive",
        help="penalty profile: naive (default) or a Table-2 key",
    )
    p.add_argument("--json", help="also write the full report as JSON here")
    p.set_defaults(func=_cmd_attrib)

    p = sub.add_parser("dash", help="run a sweep, export its static HTML page")
    p.add_argument(
        "--scale", default="smoke", choices=sorted(SCALES), help="scale preset (default: smoke)"
    )
    p.add_argument(
        "--policies",
        default="unit,odu",
        type=_names(POLICIES),
        help="comma-separated policy names",
    )
    p.add_argument(
        "--traces",
        default="low-unif,med-unif",
        type=_names(sorted(STANDARD_UPDATE_TRACES)),
        help="comma-separated trace names",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="static HTML output path")
    p.set_defaults(func=_cmd_dash)

    p = sub.add_parser(
        "smoke", help="run one instrumented cell and export every artifact"
    )
    p.add_argument(
        "--scale", default="smoke", choices=sorted(SCALES), help="scale preset (default: smoke)"
    )
    p.add_argument("--policy", default="unit", choices=POLICIES)
    p.add_argument(
        "--trace",
        default="med-unif",
        choices=sorted(STANDARD_UPDATE_TRACES),
        help="update trace name",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="artifact output directory")
    p.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    configure_logging(verbosity_from_args(args))
    result: int = args.func(args)
    return result


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
