"""``python -m repro.faults``: run fault scenarios and recovery suites.

Subcommands::

    list     canned scenarios and their injector timelines
    run      one policy under one canned scenario (degradation JSON)
    suite    UNIT vs IMU/ODU/QMF under one canned scenario, with
             table + bar-chart figures and a JSON report
    smoke    tiny suite run used by CI; writes the report artifacts
             and exits non-zero if they are missing
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.experiments.config import POLICIES, SCALES
from repro.faults.scenarios import CANNED
from repro.obs.logging_setup import (
    add_verbosity_flags,
    configure_logging,
    verbosity_from_args,
)
from repro.workload.updates import STANDARD_UPDATE_TRACES


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", default="smoke", choices=sorted(SCALES), help="scale preset (default: smoke)"
    )


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default="med-unif",
        choices=sorted(STANDARD_UPDATE_TRACES),
        help="update trace name",
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import canned

    preset = SCALES[args.scale]
    for name in sorted(CANNED):
        scenario = canned(name, preset.horizon, preset.n_items)
        print(scenario.describe())
        for window in scenario.timeline():
            params = " ".join(
                f"{key}={value:g}" for key, value in window.params_dict().items()
            )
            print(
                f"  {window.label:<20} [{window.start:8.1f}, {window.end:8.1f})"
                f"  {params}"
            )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.report import degradation_table, json_sanitize
    from repro.experiments.runner import run_experiment
    from repro.faults.scenarios import canned
    from repro.obs.config import ObsConfig

    preset = SCALES[args.scale]
    scenario = canned(args.scenario, preset.horizon, preset.n_items)
    obs = None
    if args.trace_out:
        obs = ObsConfig(enabled=True, out_dir=args.trace_out)
    config = ExperimentConfig(
        policy=args.policy,
        update_trace=args.trace,
        seed=args.seed,
        scale=preset,
        keep_records=True,
        faults=scenario,
        obs=obs,
    )
    report = run_experiment(config)
    print(report.summary())
    assert report.degradation is not None
    print(degradation_table(report.degradation))
    payload = json_sanitize(report.degradation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote degradation metrics to {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.faults.suite import run_canned_suite

    rendered = run_canned_suite(
        args.scenario,
        scale=args.scale,
        update_trace=args.trace,
        seed=args.seed,
        out_dir=args.out,
    )
    print(rendered)
    if args.out:
        print(f"\nartifacts under {args.out}")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import canned
    from repro.faults.suite import run_suite, render_suite, write_suite_report

    preset = SCALES["smoke"]
    scenario = canned(args.scenario, preset.horizon, preset.n_items)
    results = run_suite(scenario, scale="smoke", seed=args.seed)
    print(render_suite(results, scenario))
    paths = write_suite_report(results, scenario, args.out)
    for path in paths:
        print(f"artifact: {path}")
    missing = [path for path in paths if not path.exists()]
    return 1 if missing else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault injection and recovery comparison.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="canned scenarios and their timelines")
    _add_scale(p)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("run", help="one policy under one canned scenario")
    p.add_argument(
        "scenario", choices=sorted(CANNED), help="canned scenario name (see `list`)"
    )
    p.add_argument("--policy", default="unit", choices=POLICIES)
    _add_trace(p)
    _add_scale(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="write degradation JSON here instead of stdout")
    p.add_argument("--trace-out", help="also record an obs trace to this directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="UNIT vs IMU/ODU/QMF recovery comparison")
    p.add_argument(
        "scenario", choices=sorted(CANNED), help="canned scenario name (see `list`)"
    )
    _add_trace(p)
    _add_scale(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="also write JSON + text artifacts here")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("smoke", help="CI smoke: tiny suite + report artifacts")
    p.add_argument("--scenario", default="pile-up", choices=sorted(CANNED))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="artifact output directory")
    p.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    configure_logging(verbosity_from_args(args))
    result: int = args.func(args)
    return result


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
