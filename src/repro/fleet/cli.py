"""``python -m repro.fleet`` — run, smoke-test, and sweep fleets.

Subcommands:

``run``     one fleet run; prints the merged summary (optionally JSON)
``smoke``   the CI gate: 1-shard-vs-single-server digest equivalence,
            2-shard repeat determinism, and a paired 2-shard mini-sweep
            whose merged reports land in a JSON artifact
``figure``  the Figure-4-style 1-vs-4-shard sweep: read-routing policy
            trading freshness (DSF) against latency (DMF) across three
            update-load levels
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.db.transactions import Outcome
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import ascii_table, stable_report_digest
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import fan_out
from repro.fleet.report import FleetReport
from repro.fleet.router import ROUTER_POLICIES
from repro.fleet.runner import FleetConfig, run_fleet

#: The figure's load axis: Table 1 update volumes at uniform spatial mix
#: (15% / 75% / 150% update CPU).
FIGURE_TRACES: Tuple[str, ...] = ("low-unif", "med-unif", "high-unif")

#: The figure's fleet variants: the single-server baseline, a 4-shard
#: fleet that always reads fresh primaries, and a 4-shard fleet with
#: 2-way replication routing reads by estimated freshness vs load.
FIGURE_VARIANTS: Tuple[Tuple[str, int, int, str], ...] = (
    ("1-shard", 1, 1, "primary"),
    ("4-shard/primary", 4, 1, "primary"),
    ("4-shard/freshness", 4, 2, "freshness"),
)


def _base_config(args: argparse.Namespace, trace: str) -> ExperimentConfig:
    return ExperimentConfig(
        policy=args.policy,
        update_trace=trace,
        seed=args.seed,
        scale=SCALES[args.scale],
    )


def _fleet_config(args: argparse.Namespace, base: ExperimentConfig) -> FleetConfig:
    return FleetConfig(
        base=base,
        n_shards=args.shards,
        replication=args.replication,
        partition_strategy=args.partition,
        router_policy=args.router,
        replica_lag=args.replica_lag,
        sync_period=args.sync_period,
        workers=1 if args.processes else 0,
    )


def _cell_metrics(report: FleetReport) -> Dict[str, object]:
    merged = report.merged
    return {
        "usm": merged.usm,
        "dmf": merged.ratios[Outcome.DEADLINE_MISS],
        "dsf": merged.ratios[Outcome.DATA_STALE],
        "success": merged.ratios[Outcome.SUCCESS],
        "rejected": merged.ratios[Outcome.REJECTED],
        "digest": report.digest,
        "routing": report.routing,
        "rebalances": len(report.rebalances),
    }


def _cmd_run(args: argparse.Namespace) -> int:
    base = _base_config(args, args.trace)
    report = run_fleet(_fleet_config(args, base))
    print(report.summary())
    print(f"digest: {report.digest}")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        print(f"wrote {path}")
    return 0


def _smoke_fleet(args: argparse.Namespace, trace: str, workers: int = 0) -> FleetConfig:
    """A fresh smoke fleet: 2 shards, 2-way replication, freshness routing."""
    return FleetConfig(
        base=_base_config(args, trace),
        n_shards=2,
        replication=2,
        router_policy="freshness",
        workers=workers,
    )


def _cmd_smoke(args: argparse.Namespace) -> int:
    """The CI gate: equivalence, determinism, and a paired mini-sweep."""
    failures: List[str] = []
    base = _base_config(args, "med-unif")

    single = stable_report_digest(run_experiment(base))
    one_shard = run_fleet(FleetConfig(base=base, n_shards=1))
    if one_shard.digest != single:
        failures.append(
            f"1-shard fleet digest {one_shard.digest[:16]} != "
            f"single-server digest {single[:16]}"
        )
    print(f"1-shard equivalence: {'ok' if one_shard.digest == single else 'FAIL'}")

    artifact: Dict[str, object] = {"scale": args.scale, "seed": args.seed, "cells": {}}
    for trace in ("low-unif", "med-unif"):
        first = run_fleet(_smoke_fleet(args, trace))
        second = run_fleet(_smoke_fleet(args, trace))
        repeat_ok = first.digest == second.digest
        if not repeat_ok:
            failures.append(f"2-shard repeat determinism broke on {trace}")
        serial_vs_procs_ok = True
        if args.processes:
            procs = run_fleet(_smoke_fleet(args, trace, workers=1))
            serial_vs_procs_ok = procs.digest == first.digest
            if not serial_vs_procs_ok:
                failures.append(f"serial-vs-process fleets diverged on {trace}")
        print(
            f"2-shard {trace}: repeat={'ok' if repeat_ok else 'FAIL'} "
            f"procs={'ok' if serial_vs_procs_ok else 'FAIL'} "
            f"usm={first.merged.usm:+.4f}"
        )
        artifact["cells"][trace] = first.as_dict()  # type: ignore[index]

    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True))
        print(f"wrote {path}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _figure_cells(args: argparse.Namespace) -> Dict[Tuple[str, str], FleetConfig]:
    """The figure's fleets keyed by ``(trace, variant label)``, in grid order."""
    return {
        (trace, label): FleetConfig(
            base=_base_config(args, trace),
            n_shards=shards,
            replication=replication,
            router_policy=router,
            replica_lag=args.replica_lag,
            sync_period=args.sync_period,
        )
        for trace in FIGURE_TRACES
        for label, shards, replication, router in FIGURE_VARIANTS
    }


def _run_figure_cell(fleet: FleetConfig) -> Dict[str, object]:
    """One figure cell (module-level: :func:`fan_out` ships it to workers)."""
    return _cell_metrics(run_fleet(fleet))


def _cmd_figure(args: argparse.Namespace) -> int:
    cells = _figure_cells(args)
    fleets = list(cells.values())
    # Each cell runs its shards serially (in a sweep worker when
    # REPRO_SWEEP_WORKERS > 1).
    results = dict(
        zip(cells, fan_out(_run_figure_cell, fleets, (fleet.base for fleet in fleets)))
    )

    rows = []
    for (trace, label), metrics in results.items():
        rows.append(
            [
                trace,
                label,
                f"{metrics['usm']:+.4f}",
                f"{metrics['dmf']:.4f}",
                f"{metrics['dsf']:.4f}",
                f"{metrics['rejected']:.4f}",
            ]
        )
    print(
        ascii_table(
            ["trace", "fleet", "USM", "DMF", "DSF", "reject"],
            rows,
            title="Fleet read-routing: freshness (DSF) vs latency (DMF)",
        )
    )
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "scale": args.scale,
            "seed": args.seed,
            "cells": {f"{trace}|{label}": m for (trace, label), m in results.items()},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {path}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--policy", default="unit")
    parser.add_argument("--replica-lag", dest="replica_lag", type=float, default=5.0)
    parser.add_argument("--sync-period", dest="sync_period", type=float, default=20.0)
    parser.add_argument("--out", default=None, help="write a JSON artifact here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one fleet run")
    _add_common(run_p)
    run_p.add_argument("--trace", default="med-unif")
    run_p.add_argument("--shards", type=int, default=2)
    run_p.add_argument("--replication", type=int, default=1)
    run_p.add_argument("--partition", default="block")
    run_p.add_argument("--router", default="primary", choices=ROUTER_POLICIES)
    run_p.add_argument(
        "--processes", action="store_true", help="one OS process per shard"
    )
    run_p.set_defaults(func=_cmd_run)

    smoke_p = sub.add_parser("smoke", help="CI smoke: equivalence + determinism")
    _add_common(smoke_p)
    smoke_p.add_argument(
        "--processes", action="store_true", help="also check process-parallel shards"
    )
    smoke_p.set_defaults(func=_cmd_smoke)

    figure_p = sub.add_parser("figure", help="1-vs-4-shard routing sweep")
    _add_common(figure_p)
    figure_p.set_defaults(func=_cmd_figure)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
