"""Command-line entry point: regenerate any table or figure, or run a
single policy and print a full dossier.

Usage::

    python -m repro.experiments table1 --scale small
    python -m repro.experiments fig4 --scale paper --seed 7
    python -m repro.experiments all --scale small
    python -m repro.experiments run --policy unit --trace med-unif
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from repro.experiments.config import POLICIES, SCALES
from repro.obs.logging_setup import (
    add_verbosity_flags,
    configure_logging,
    verbosity_from_args,
)
from repro.experiments import figures as fig
from repro.experiments.sweep import run_cells
from repro.experiments.tables import render_table1, render_table2, table1
from repro.workload.updates import STANDARD_UPDATE_TRACES

TARGETS = ("table1", "table2", "fig3", "fig4", "fig5", "fig6", "all", "run")


def dossier_run(config):
    """Run ``config`` on a :class:`Substrate`, sampling the server every
    tenth of the horizon; returns ``(report, timeline rows)``."""
    from repro.db.server import CONTROL_EVENT_PRIORITY
    from repro.db.transactions import Outcome
    from repro.experiments.runner import Substrate
    from repro.workload.cache import get_workload

    substrate = Substrate(config, *get_workload(config))
    server = substrate.server
    horizon = config.scale.horizon
    interval = horizon / 10.0
    rows = []

    def sample():
        now = server.now
        busy = server.busy_time_by_class()
        admission = getattr(server.policy, "admission", None)
        modulator = getattr(server.policy, "modulator", None)
        utilization = (busy["query"] + busy["update"]) / now if now > 0 else 0.0
        rows.append(
            [
                f"{now:.0f}",
                len(server.ready.ready_queries()),
                len(server.ready.ready_updates()),
                f"{utilization:.2f}",
                server.outcome_counts[Outcome.SUCCESS],
                "" if admission is None else f"{admission.c_flex:.3f}",
                "" if modulator is None else modulator.degraded_count(),
            ]
        )
        if now + interval <= horizon:
            server.sim.schedule_after(interval, sample, priority=CONTROL_EVENT_PRIORITY)

    server.sim.schedule_after(interval, sample, priority=CONTROL_EVENT_PRIORITY)
    return substrate.finish(), rows


def response_time_rows(records):
    """``[class, n, mean, p50, p90, p99]`` rows (times in ms): the pooled
    finished queries first, then each outcome in first-seen order.

    Rejections resolve instantly (response time 0), so they are kept
    out of the pooled row; they still get a row of their own.
    """
    from repro.db.transactions import Outcome
    from repro.obs.attrib import PERCENTILES, percentile

    pooled = []
    by_outcome = {}
    for record in records:
        by_outcome.setdefault(record.outcome, []).append(record.response_time)
        if record.outcome is not Outcome.REJECTED:
            pooled.append(record.response_time)
    groups = [("(all finished)", pooled)] if pooled else []
    groups += [(outcome.value, values) for outcome, values in by_outcome.items()]
    rows = []
    for label, values in groups:
        ordered = sorted(values)
        rows.append(
            [label, len(values), f"{sum(values) / len(values) * 1000:.1f}"]
            + [f"{percentile(ordered, fraction) * 1000:.1f}" for fraction in PERCENTILES]
        )
    return rows


def _run_dossier(args, scale) -> None:
    """Run one policy and print outcomes, latency, and a timeline."""
    from repro.db.transactions import Outcome
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.report import ascii_table

    config = ExperimentConfig(
        policy=args.policy,
        update_trace=args.trace,
        seed=args.seed,
        scale=scale,
        keep_records=True,
    )
    report, timeline_rows = dossier_run(config)

    total = report.queries_submitted
    counts = report.outcome_counts
    print(
        f"{report.policy_name} on {args.trace} ({args.scale} scale, seed {args.seed}): "
        f"{total} queries"
    )
    print(
        ascii_table(
            ["outcome", "count", "ratio"],
            [[o.value, counts[o], f"{counts[o] / total:.3f}"] for o in Outcome],
            title="Outcomes",
        )
    )
    print()
    print(
        ascii_table(
            ["class", "n", "mean ms", "p50 ms", "p90 ms", "p99 ms"],
            response_time_rows(report.records),
            title="Response times",
        )
    )
    print()
    print(
        ascii_table(
            ["t(s)", "q-queue", "u-queue", "util", "ok", "C_flex", "degraded"],
            timeline_rows,
            title="Timeline",
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    add_verbosity_flags(parser)
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="workload scale preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--replications",
        type=int,
        default=1,
        help="average fig4 over this many seeds",
    )
    parser.add_argument(
        "--progress", action="store_true", help="print per-run progress lines"
    )
    parser.add_argument(
        "--policy", choices=POLICIES, default="unit", help="for `run`"
    )
    parser.add_argument(
        "--trace",
        choices=sorted(STANDARD_UPDATE_TRACES),
        default="med-unif",
        help="for `run`",
    )
    args = parser.parse_args(argv)
    configure_logging(verbosity_from_args(args))
    if args.progress:
        # --progress means "show the per-run lines" regardless of -v:
        # raise just the experiments subtree to INFO (stderr), keeping
        # stdout clean for the rendered tables.
        logging.getLogger("repro.experiments").setLevel(logging.INFO)
    scale = SCALES[args.scale]

    if args.target == "run":
        _run_dossier(args, scale)
        return 0

    targets = TARGETS[:-2] if args.target == "all" else (args.target,)
    # Each figure: its cells, their reader and its renderer.  The cells
    # of every requested figure go through one runner call, which
    # simulates each distinct cell once.
    figures = {
        "fig3": (fig.figure3_cells, fig.read_figure3, fig.render_figure3),
        "fig4": (
            functools.partial(fig.figure4_cells, replications=args.replications),
            fig.read_figure4,
            fig.render_figure4,
        ),
        "fig5": (fig.figure5_cells, fig.read_figure5, fig.render_figure5),
        "fig6": (fig.figure6_cells, fig.read_figure6, fig.render_figure6),
    }
    cells = {t: figures[t][0](scale, seed=args.seed) for t in targets if t in figures}
    reports = iter(run_cells(sum(cells.values(), []), progress=args.progress))
    for target in targets:
        if target == "table1":
            print(render_table1(table1(scale, seed=args.seed)))
        elif target == "table2":
            print(render_table2())
        else:
            _, read, render = figures[target]
            print(render(read([next(reports) for _ in cells[target]])))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
