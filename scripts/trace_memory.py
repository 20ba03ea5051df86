"""Traced allocations of one observed run: its peak and what it leaves.

Runs one cell with observability on (trace and spans, the
default :class:`~repro.obs.config.ObsConfig`) under ``tracemalloc`` and
prints one JSON object: the peak of traced memory above the start of
the run, what is still allocated once the report is built, and how much
of that was allocated in ``core/fixedpoint.py``.  It also runs the
cell's obs-off twin and prints its peak (``obs_off_peak_mb``), so the
memory cost of observation is the difference of two numbers of one
record.  The workload is generated before tracing starts.  Unlike
peak RSS these figures do not depend on the host's allocator or on
other processes, so two trees can be compared one run each.

Usage::

    PYTHONPATH=src python scripts/trace_memory.py --scale paper --seed 7
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import tracemalloc
from typing import List

from repro.experiments.config import POLICIES, SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.config import ObsConfig
from repro.workload.cache import get_workload
from repro.workload.updates import STANDARD_UPDATE_TRACES

MB = float(1 << 20)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--policy", choices=POLICIES, default="unit")
    parser.add_argument("--trace", choices=sorted(STANDARD_UPDATE_TRACES), default="med-unif")
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    config = ExperimentConfig(
        policy=args.policy,
        update_trace=args.trace,
        seed=args.seed,
        scale=SCALES[args.scale],
        obs=ObsConfig(enabled=True),
    )
    get_workload(config)
    gc.collect()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    report = run_experiment(config)
    gc.collect()
    current, peak = tracemalloc.get_traced_memory()
    fixedpoint = sum(
        stat.size
        for stat in tracemalloc.take_snapshot().statistics("filename")
        if stat.traceback[0].filename.endswith("fixedpoint.py")
    )
    tracemalloc.stop()
    gc.collect()
    tracemalloc.start()
    off_start = tracemalloc.get_traced_memory()[0]
    run_experiment(dataclasses.replace(config, obs=None))
    off_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    payload = {
        "cell": f"{config.label()}/{args.scale}/seed{args.seed}",
        "trace_events": report.obs_summary["recorded"] if report.obs_summary else 0,
        "peak_mb": round((peak - start) / MB, 1),
        "obs_off_peak_mb": round((off_peak - off_start) / MB, 1),
        "retained_mb": round((current - start) / MB, 1),
        "fixedpoint_retained_mb": round(fixedpoint / MB, 2),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
