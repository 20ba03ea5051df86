"""Interleaved benchmark pairs of two source trees.

Runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
from two checkouts in alternating order (A B, B A, A B, ...), so that
host drift over the session lands on both trees alike, and prints one
JSON object with every run's end-to-end metrics and the per-tree
medians.  Each run is a fresh process started from its tree's root, so
``peak_rss_mb`` is that tree's alone.

Usage::

    mkdir ../base && git archive <base-commit> | tar -x -C ../base
    python scripts/bench_pairs.py --a ../base --b . \\
        --workload observed_unit --pairs 5 --out ../pairs.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List


def _run(root: Path, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{root}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: benchmark checks failed\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--a", type=Path, required=True, help="the baseline tree's root")
    parser.add_argument("--b", type=Path, required=True, help="the changed tree's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    runs: Dict[str, List[Dict[str, object]]] = {"a": [], "b": []}
    for pair in range(args.pairs):
        for tree in ("ab" if pair % 2 == 0 else "ba"):
            root = args.a if tree == "a" else args.b
            runs[tree].append(_run(root.resolve(), args.workload, args.seed, args.seconds))
    medians = {
        tree: {
            name: statistics.median(float(run[name]) for run in tree_runs)  # type: ignore[arg-type]
            for name in tree_runs[0]
        }
        for tree, tree_runs in runs.items()
    }
    payload = {
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
        f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "runs": runs,
        "medians": medians,
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
