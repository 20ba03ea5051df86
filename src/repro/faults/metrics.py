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
  ``settle_buckets`` consecutive buckets (None when it never settles).

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

#: Default bucket width (seconds of sim time per USM sample).
DEFAULT_BUCKET = 5.0

#: Default tolerance band around the pre-fault baseline, as a fraction
#: of the profile's attainable USM range.
DEFAULT_BAND_FRACTION = 0.05

#: Buckets the series must stay in-band for recovery to count.
DEFAULT_SETTLE_BUCKETS = 2


def usm_time_series(
    records: Sequence[QueryRecord],
    profile: PenaltyProfile,
    horizon: float,
    bucket: float = DEFAULT_BUCKET,
) -> List[Tuple[float, Optional[float]]]:
    """Bucketed average USM: ``[(bucket_start, usm-or-None), ...]``.

    Buckets with no finished query report None (no signal, not zero —
    an idle system is not a dissatisfied one).  Records finishing past
    the horizon (the drain window) land in the final bucket row so late
    outcomes still count.
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n_buckets = max(1, int(horizon / bucket + 0.999999))
    sums = [0.0] * n_buckets
    counts = [0] * n_buckets
    for record in records:
        index = int(record.finish_time / bucket)
        if index >= n_buckets:
            index = n_buckets - 1
        sums[index] += profile.contribution(record.outcome)
        counts[index] += 1
    series: List[Tuple[float, Optional[float]]] = []
    for index in range(n_buckets):
        value = sums[index] / counts[index] if counts[index] else None
        series.append((index * bucket, value))
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
    return sum(values) / len(values)


def _window_metrics(
    window: FaultWindow,
    series: Sequence[Tuple[float, Optional[float]]],
    bucket: float,
    band: float,
    settle_buckets: int,
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
        if start + bucket > window.start and value is not None
    ]
    if after_start:
        min_usm = min(value for _, value in after_start)
        out["min_usm"] = min_usm
        out["dip_depth"] = max(0.0, baseline - min_usm)
        out["time_below"] = bucket * sum(
            1 for _, value in after_start if value < floor
        )

    # Recovery: first bucket at/after the fault end from which the
    # series stays in-band for `settle_buckets` consecutive non-empty
    # buckets.
    post = [
        (start, value) for start, value in series if start + bucket > window.end
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
            if run >= settle_buckets:
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
    bucket: float = DEFAULT_BUCKET,
    band: Optional[float] = None,
    settle_buckets: int = DEFAULT_SETTLE_BUCKETS,
) -> Dict[str, object]:
    """Per-fault-window degradation metrics for one run.

    Args:
        records: The run's complete query records
            (``ExperimentConfig.keep_records=True``).
        profile: The system penalty profile (per-record profiles, when
            present, take precedence — matching the USM accounting).
        scenario: The injected scenario; one metrics row per window.
        horizon: The run's trace horizon.
        bucket: USM sampling bucket width (seconds).
        band: Absolute tolerance around the baseline; defaults to
            ``DEFAULT_BAND_FRACTION`` of the profile's USM range.
        settle_buckets: Consecutive in-band buckets required to declare
            recovery.
    """
    if band is None:
        band = DEFAULT_BAND_FRACTION * profile.usm_range
    series = usm_time_series(records, profile, horizon, bucket=bucket)
    windows = [
        _window_metrics(window, series, bucket, band, settle_buckets)
        for window in scenario.timeline()
    ]
    return {
        "scenario": scenario.name,
        "bucket_seconds": bucket,
        "band": band,
        "settle_buckets": settle_buckets,
        "windows": windows,
        "usm_series": [
            {"t": start, "usm": value} for start, value in series
        ],
    }
