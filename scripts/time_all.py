"""Interleaved wall-time pairs of ``python -m repro.experiments all``.

Times the full table-and-figure regeneration on two source trees in
alternating order (A B, B A, A B, ...), so that host drift over the
session lands on both trees alike, and prints one JSON object with every
pair and the per-tree medians.  Each run is a fresh single process with
the sweep pool and the on-disk workload cache switched off, and its
stdout is kept next to the timings so the trees' outputs can be diffed.

Usage::

    mkdir ../base && git archive <base-commit> | tar -x -C ../base
    python scripts/time_all.py --a ../base/src --b src \\
        --scale paper --seed 7 --pairs 3 --out ../time-all
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _run(src: str, scale: str, seed: int, stdout: Path) -> float:
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_SWEEP_WORKERS", None)
    command = [sys.executable, "-m", "repro.experiments", "all"]
    command += ["--scale", scale, "--seed", str(seed)]
    started = time.perf_counter()
    with stdout.open("w", encoding="utf-8") as handle:
        subprocess.run(command, stdout=handle, env=env, check=True)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="first tree's src/ directory")
    parser.add_argument("--b", required=True, help="second tree's src/ directory")
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out", required=True, help="directory for each run's stdout")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for pair in range(args.pairs):
        order = ("a", "b") if pair % 2 == 0 else ("b", "a")
        walls = {}
        for tree in order:
            stdout = out / f"all.{tree}.{pair}.txt"
            walls[tree] = round(_run(getattr(args, tree), args.scale, args.seed, stdout), 1)
        pairs.append({"order": "".join(order), "a_s": walls["a"], "b_s": walls["b"]})
    result = {
        "command": f"python -m repro.experiments all --scale {args.scale} --seed {args.seed}",
        "pairs": pairs,
        "a_median_s": statistics.median(p["a_s"] for p in pairs),
        "b_median_s": statistics.median(p["b_s"] for p in pairs),
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
