"""Steadiness self-check: do two sets of runs of one commit agree?

Run from the repository root::

    python3 perfbench/steady.py                      # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --workloads paper_unit --runs 5 --sets 1
    python3 perfbench/steady.py --runs 1 --sets 1    # every workload once

Each run is a fresh ``perfbench/run.py`` process with its own seed, as
``BENCHMARK.json`` prescribes (set B uses seeds after set A's); its
result line (attempted and failed runs, every metric with its unit) is
printed as it finishes.  The sets alternate run by run (A1 B1 A2 B2
...), so a change in host speed lands in both.  For every end-to-end
metric of every workload it prints each set's median and quartiles,
the spread (q3 - q1) / median, and the shift of set B's median from
set A's in the metric's worse direction, and judges both against the
metric's bound: every spread must stay within the bound and the shift
must stay within it in either direction, since which set runs first
is arbitrary.  A spread under a third of the bound is reported as
steady.  Exits 1 when a run fails or any check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]

    samples = {w: [[] for _ in range(args.sets)] for w in workloads}
    for workload in workloads:
        for offset in range(args.runs):
            for set_index in range(args.sets):
                seed = 1 + set_index * args.runs + offset
                result = run_once(workload, seed, seconds)
                print(json.dumps({"set": set_index, "workload": workload, "seed": seed,
                                  **result}), flush=True)
                samples[workload][set_index].append(
                    {k: v["value"] for k, v in result["metrics"].items()}
                )

    ok = True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summarize([run[name] for run in runs]) for runs in samples[workload]]
            verdicts = []
            for stats in sets:
                if stats["spread"] > bound:
                    verdicts.append("TOO NOISY")
                    ok = False
                else:
                    verdicts.append("steady" if stats["spread"] < bound / 3 else "within bound")
            line = f"{workload:<17} {name:<14} bound {bound:.2f} | " + " | ".join(
                f"med {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                f"spread {s['spread']:.3f} {v}"
                for s, v in zip(sets, verdicts)
            )
            if len(sets) == 2:
                worse = sets[1]["median"] / sets[0]["median"] - 1.0
                if metric["better"] == "higher":
                    worse = -worse
                agrees = abs(worse) <= bound
                ok = ok and agrees
                line += f" | shift {worse:+.3f} {'agrees' if agrees else 'DISAGREES'}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
