"""Command-line workload generator.

Build the experiments' workload at a scale and seed (the synthetic
cello99a-like query trace and any of the nine standard update traces),
save it as a bundle, or print summaries of an existing bundle:

    python -m repro.workload generate --scale small --seed 7 \
        --traces med-unif med-neg --out bundle.json
    python -m repro.workload inspect bundle.json
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import ascii_table
from repro.obs.logging_setup import (
    add_verbosity_flags,
    configure_logging,
    verbosity_from_args,
)
from repro.workload.cache import get_workload
from repro.workload.correlation import pearson
from repro.workload.traces import load_trace_bundle, save_trace_bundle
from repro.workload.updates import STANDARD_UPDATE_TRACES


def _generate(args) -> int:
    """Save the experiments' workload at ``--scale``/``--seed``: the
    base query trace and the named update traces."""
    update_traces = {}
    for name in args.traces:
        if name not in STANDARD_UPDATE_TRACES:
            print(f"unknown update trace {name!r}", file=sys.stderr)
            return 2
        config = ExperimentConfig(update_trace=name, seed=args.seed, scale=SCALES[args.scale])
        query_trace, update_trace = get_workload(config)
        update_traces[name] = update_trace
    save_trace_bundle(args.out, query_trace, update_traces)
    print(
        f"wrote {args.out}: {len(query_trace.queries)} queries, "
        f"{sum(t.total_updates() for t in update_traces.values())} updates "
        f"across {len(update_traces)} trace(s)"
    )
    return 0


def _inspect(args) -> int:
    query_trace, update_traces = load_trace_bundle(args.bundle)
    counts = query_trace.access_counts()
    print(
        f"query trace {query_trace.name!r}: {len(query_trace.queries)} queries, "
        f"{query_trace.n_items} items, horizon {query_trace.horizon:g}s, "
        f"utilization {query_trace.utilization():.1%}"
    )
    rows = []
    for name, trace in sorted(update_traces.items()):
        rows.append(
            [
                name,
                trace.total_updates(),
                f"{trace.utilization():.1%}",
                f"{pearson([float(c) for c in trace.per_item_counts()], [float(c) for c in counts]):+.3f}",
            ]
        )
    if rows:
        print(
            ascii_table(
                ["update trace", "updates", "utilization", "corr w/ queries"], rows
            )
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.workload")
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build and save a trace bundle")
    gen.add_argument("--scale", choices=sorted(SCALES), default="small")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--traces",
        nargs="+",
        default=["med-unif"],
        help="update traces to include (e.g. med-unif high-neg)",
    )
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_generate)

    ins = sub.add_parser("inspect", help="summarize a saved bundle")
    ins.add_argument("bundle")
    ins.set_defaults(func=_inspect)

    args = parser.parse_args(argv)
    configure_logging(verbosity_from_args(args))
    result: int = args.func(args)
    return result


if __name__ == "__main__":
    sys.exit(main())
