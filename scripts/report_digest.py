"""Cross-tree byte-identity battery: digest reports over a config grid.

Runs a battery of configurations spanning every policy, several update
traces, penalty profiles (naive and non-naive, so both admission gates
fire), seeds, scales, a fault scenario and multi-item queries, then
prints one SHA-256 digest per cell plus a combined digest.  Run it on
two checkouts and diff the output to verify that a performance change
kept the simulation *byte-identical* — the contract every perf PR must
satisfy.

Usage::

    PYTHONPATH=src python scripts/report_digest.py > digests.json
    # ... switch trees ...
    PYTHONPATH=src python scripts/report_digest.py > digests2.json
    diff digests.json digests2.json

The serialization is the canonical
:func:`repro.experiments.report.stable_report_bytes` (shared with
tests/test_determinism_regression.py): float fields go through
``float.hex()`` so the comparison is exact bits, not a rounded repr.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import stable_report_bytes
from repro.experiments.runner import run_experiment
from repro.faults.scenarios import canned


def battery() -> list:
    smoke = SCALES["smoke"]
    small = SCALES["small"]
    naive = PenaltyProfile.naive()
    cells = []
    # Every policy x two traces x two profiles (the non-naive profile
    # activates the endangered-queries USM gate) at smoke scale.
    for policy in ("unit", "imu", "odu", "qmf", "elastic"):
        for trace in ("med-unif", "high-pos"):
            for profile in (naive, TABLE2_PROFILES["gt1-high-cfm"]):
                for seed in (7, 11):
                    cells.append(
                        ExperimentConfig(
                            policy=policy,
                            update_trace=trace,
                            profile=profile,
                            seed=seed,
                            scale=smoke,
                        )
                    )
    # Deeper queues at small scale for the hot policies.
    for policy in ("unit", "qmf"):
        for profile in (naive, TABLE2_PROFILES["gt1-high-cr"]):
            cells.append(
                ExperimentConfig(
                    policy=policy,
                    update_trace="med-unif",
                    profile=profile,
                    seed=7,
                    scale=small,
                )
            )
    # A fault scenario (trace-shaping + live slowdown).
    for name in ("update-storm", "pile-up"):
        cells.append(
            ExperimentConfig(
                policy="unit",
                update_trace="med-unif",
                seed=7,
                scale=smoke,
                faults=canned(name, smoke.horizon, smoke.n_items),
            )
        )
    # Multi-item queries: freshness is the min of Eq. 1 over the items.
    for policy in ("unit", "imu", "odu", "qmf", "elastic"):
        cells.append(
            ExperimentConfig(
                policy=policy,
                update_trace="med-unif",
                seed=7,
                scale=smoke,
                items_per_query=3,
            )
        )
    # Inexact weights (0.1, 0.5): n * w differs from w added n times,
    # so these cells pin the summation order of the USM pricing.
    for key in ("lt1-high-cfm", "lt1-high-cr"):
        cells.append(
            ExperimentConfig(
                policy="unit",
                update_trace="med-unif",
                profile=TABLE2_PROFILES[key],
                seed=7,
                scale=smoke,
            )
        )
    return cells


def main() -> int:
    out = {}
    combined = hashlib.sha256()
    for config in battery():
        label = (
            f"{config.policy}/{config.update_trace}/"
            f"{config.profile.name or 'naive'}/seed{config.seed}/"
            f"h{config.scale.horizon:.0f}"
            + (f"/faults:{config.faults.name}" if config.faults is not None else "")
            + (f"/q{config.items_per_query}" if config.items_per_query != 1 else "")
        )
        blob = stable_report_bytes(run_experiment(config))
        digest = hashlib.sha256(blob).hexdigest()
        combined.update(blob)
        out[label] = digest
        print(f"# {label}: {digest}", file=sys.stderr)
    out["__combined__"] = combined.hexdigest()
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
