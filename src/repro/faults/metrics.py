"""Graceful-degradation metrics.

Turns one run's per-query records into a bucketed USM time series and,
for every fault window of the scenario, three recovery measures
(motivated by Liu & Ji's performance/freshness tradeoff analysis —
what matters under transient stress is not the steady state but how
deep the dip is and how fast the system climbs back):

* **dip depth** — pre-fault baseline USM minus the minimum bucketed USM
  observed from the fault start until the end of the run;
* **time below band** — total bucketed time with USM below
  ``baseline - band`` from the fault start on;
* **recovery time** — seconds after the fault *ends* until the bucketed
  USM re-enters the pre-fault band and stays there for
  ``SETTLE_BUCKETS`` consecutive buckets (None when it never settles).

Everything is computed from the immutable record list — no simulator
state — so the metrics work identically for UNIT and the baseline
policies, and re-running them is free.  USM per query uses
``PenaltyProfile.contribution`` (Eq. 3), bucketed by *finish* time (the
instant the user experiences the outcome).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.usm import PenaltyProfile
from repro.db.transactions import QueryRecord
from repro.faults.scenario import FaultScenario, FaultWindow
from repro.sim.stats import ordered_sum

#: Bucket width (seconds of sim time per USM sample).
BUCKET = 5.0

#: Tolerance band around the pre-fault baseline, as a fraction of the
#: profile's attainable USM range.
BAND_FRACTION = 0.05

#: Buckets the series must stay in-band for recovery to count.
SETTLE_BUCKETS = 2


def usm_time_series(
    records: Sequence[QueryRecord],
    profile: PenaltyProfile,
    horizon: float,
) -> List[Tuple[float, Optional[float]]]:
    """Bucketed average USM: ``[(bucket_start, usm-or-None), ...]``.

    Buckets with no finished query report None (no signal, not zero —
    an idle system is not a dissatisfied one).  Records finishing past
    the horizon (the drain window) land in the final bucket row so late
    outcomes still count.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n_buckets = max(1, int(horizon / BUCKET + 0.999999))
    sums = [0.0] * n_buckets
    counts = [0] * n_buckets
    for record in records:
        index = int(record.finish_time / BUCKET)
        if index >= n_buckets:
            index = n_buckets - 1
        sums[index] += profile.contribution(record.outcome)
        counts[index] += 1
    series: List[Tuple[float, Optional[float]]] = []
    for index in range(n_buckets):
        value = sums[index] / counts[index] if counts[index] else None
        series.append((index * BUCKET, value))
    return series


def _baseline(
    series: Sequence[Tuple[float, Optional[float]]], before: float
) -> Optional[float]:
    """Mean bucketed USM over buckets entirely before ``before``."""
    values = [
        value for start, value in series if start + 1e-12 < before and value is not None
    ]
    # A fault starting at t=0 has no pre-fault buckets; fall back to the
    # whole-series mean so the dip is still measured against *something*.
    if not values:
        values = [value for _, value in series if value is not None]
    if not values:
        return None
    return ordered_sum(values) / len(values)


def _window_metrics(
    window: FaultWindow,
    series: Sequence[Tuple[float, Optional[float]]],
    band: float,
) -> Dict[str, object]:
    baseline = _baseline(series, window.start)
    out: Dict[str, object] = {
        "label": window.label,
        "kind": window.kind,
        "start": window.start,
        "end": window.end,
        "baseline_usm": baseline,
        "band": band,
        "dip_depth": None,
        "min_usm": None,
        "time_below": 0.0,
        "recovery_time": None,
    }
    if baseline is None:
        return out
    floor = baseline - band

    after_start = [
        (start, value)
        for start, value in series
        if start + BUCKET > window.start and value is not None
    ]
    if after_start:
        min_usm = min(value for _, value in after_start)
        out["min_usm"] = min_usm
        out["dip_depth"] = max(0.0, baseline - min_usm)
        out["time_below"] = BUCKET * sum(
            1 for _, value in after_start if value < floor
        )

    # Recovery: first bucket at/after the fault end from which the
    # series stays in-band for `SETTLE_BUCKETS` consecutive non-empty
    # buckets.
    post = [
        (start, value) for start, value in series if start + BUCKET > window.end
    ]
    run = 0
    recovered_at: Optional[float] = None
    for start, value in post:
        if value is None:
            continue  # no signal: neither confirms nor breaks the streak
        if value >= floor:
            if run == 0:
                recovered_at = start
            run += 1
            if run >= SETTLE_BUCKETS:
                out["recovery_time"] = max(0.0, recovered_at - window.end)
                break
        else:
            run = 0
            recovered_at = None
    return out


def degradation_metrics(
    records: Sequence[QueryRecord],
    profile: PenaltyProfile,
    scenario: FaultScenario,
    horizon: float,
) -> Dict[str, object]:
    """Per-fault-window degradation metrics for one run.

    The tolerance band around each baseline is ``BAND_FRACTION`` of the
    profile's USM range.

    Args:
        records: The run's complete query records
            (``ExperimentConfig.keep_records=True``).
        profile: The run's penalty profile.
        scenario: The injected scenario; one metrics row per window.
        horizon: The run's trace horizon.
    """
    band = BAND_FRACTION * profile.usm_range
    series = usm_time_series(records, profile, horizon)
    windows = [_window_metrics(window, series, band) for window in scenario.timeline()]
    return {
        "scenario": scenario.name,
        "bucket_seconds": BUCKET,
        "band": band,
        "settle_buckets": SETTLE_BUCKETS,
        "windows": windows,
        "usm_series": [
            {"t": start, "usm": value} for start, value in series
        ],
    }
