"""The repository's benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload paper_unit --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off: whole-workload passes, each from a cold workload
cache, until ``--seconds`` is spent (at least three), and the median of
each metric over the passes.
``--trace 1`` runs one untraced pass and two traced passes and reports
the per-layer metrics.  Every report of every pass is checked; the last
stdout line is the JSON result, and the exit code is 1 when any check
failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment that would change what a run measures: a sweep pool
#: breaks the single-process load, a disk workload tier turns set-up
#: into a pickle load, and the pytest benchmark knobs do not apply.
PINNED_ENV = ("REPRO_SWEEP_WORKERS", "REPRO_WORKLOAD_CACHE")
PINNED_PREFIX = "REPRO_BENCH_"

#: Passes per measured run, at least (digests are compared across them).
MIN_PASSES = 3


def _pin_environment() -> List[str]:
    removed = [
        key
        for key in list(os.environ)
        if key in PINNED_ENV or key.startswith(PINNED_PREFIX)
    ]
    for key in removed:
        del os.environ[key]
    return removed


def _load_spec() -> Dict[str, object]:
    spec_path = ROOT / "BENCHMARK.json"
    with spec_path.open() as handle:
        return json.load(handle)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _samples(values: List[float]) -> str:
    return " ".join(f"{value:.4f}" for value in values)


def _timed_pass(workload, seed: int):
    gc.collect()
    return workload.run_pass(seed)


def measure(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced passes: the end-to-end metrics and their samples."""
    started = time.perf_counter()
    attempted, errors = workload.prepare(seed)
    passes = []
    while True:
        passes.append(_timed_pass(workload, seed))
        attempted += len(passes[-1].reports)
        step = max(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - started + step > seconds:
            break
    return {"passes": passes, "attempted": attempted, "errors": errors}


def traced_passes(workload, seed: int) -> Dict[str, object]:
    """One untraced pass, then two traced ones: the layer ledger."""
    from ledger import exact_counts, layer_metrics
    from tracing import Tracer, install_layer_hooks

    attempted, errors = workload.prepare(seed)
    untraced = _timed_pass(workload, seed)
    passes = [untraced]
    ledgers = []
    counts = []
    traced_walls = []
    for _ in range(2):
        tracer = Tracer()
        gc.collect()
        install_layer_hooks(tracer)
        try:
            run = tracer.wrap(workload.run_pass, "bench:pass", "bench")
            traced = run(seed)
        finally:
            tracer.restore()
        passes.append(traced)
        traced_walls.append(traced.wall_s)
        ledgers.append(layer_metrics(tracer, traced, untraced))
        counts.append(exact_counts(tracer))
        del tracer
    for result in passes:
        attempted += len(result.reports)
    if counts[0] != counts[1]:
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        errors.append(f"traced call counts differ between passes: {changed[:8]}")
    metrics = {}
    for name in ledgers[0]:
        values = [ledger[name] for ledger in ledgers]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced.wall_s
    return {"passes": passes, "attempted": attempted, "errors": errors, "metrics": metrics}


def check_passes(workload, seed: int, passes) -> Tuple[int, List[str]]:
    """Per-pass gates plus digest equality across every pass of the run.

    Returns the number of failed runs (cells) and the failure messages.
    """
    from workloads import digests

    failed = 0
    messages: List[str] = []
    first = digests(passes[0])
    for index, result in enumerate(passes):
        current = digests(result)
        for key, errors in workload.check(seed, result).items():
            if current[key] != first[key]:
                errors.append(f"{key}: report digest differs from pass 0")
            failed += bool(errors)
            messages += [f"pass {index}: {error}" for error in errors]
    return failed, messages


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _load_spec()
    removed = _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.make(args.workload)
    seed = workloads.input_seed(args.seed)
    print(
        f"perfbench workload={args.workload} seed={args.seed} input_seed={seed} "
        f"seconds={args.seconds:g} "
        f"trace={args.trace} python={platform.python_version()} "
        f"nproc={os.cpu_count()} unset_env={removed or 'none'}"
    )

    try:
        if args.trace:
            result = traced_passes(workload, seed)
            wanted = spec["per_layer"]
            values = result["metrics"]
        else:
            result = measure(workload, seed, args.seconds)
            wanted = spec["end_to_end"]
            passes = result["passes"]
            values = {
                "setup_s": statistics.median(p.setup_s for p in passes),
                "wall_s": statistics.median(p.wall_s for p in passes),
                "queries_per_s": statistics.median(p.queries / p.work_s for p in passes),
                "peak_rss_mb": _peak_rss_mb(),
            }
            print(f"  pass set-ups (s): {_samples([p.setup_s for p in passes])}")
            print(f"  pass walls (s): {_samples([p.wall_s for p in passes])}")
        failed, errors = check_passes(workload, seed, result["passes"])
        failed += bool(result["errors"])
        errors += result["errors"]
    except Exception:  # a run that raises is a failed run
        import traceback

        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for error in errors:
        print(f"  CHECK FAILED: {error}")
    names = [metric["name"] for metric in wanted]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) ^ set(values))
        print(f"  metric set differs from BENCHMARK.json: {missing}", file=sys.stderr)
        return 2
    metrics = {}
    for metric in wanted:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<34} {value:>16.6f} {metric['unit']}")
    print(f"  runs attempted={result['attempted']} failed={failed}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
