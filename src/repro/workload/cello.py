"""A synthetic ``cello99a``-like read trace.

The paper generates user queries from the HP ``cello99a`` disk trace
(3 848 104 seconds, 110 035 reads), consuming three fields per read —
arrival time, response time, and the logical block number mapped onto
1024 consecutive regions — plus the skewed region-access histogram
visible in its Fig. 3(a).

That trace is not redistributable, so this module synthesizes a trace
with the same consumed statistics:

* **arrivals** from a two-state Markov-modulated Poisson process
  (flash crowds — the overload scenario Section 1 motivates);
* **regions** drawn from a shuffled Zipf histogram over ``n_items``
  regions (heavy skew, hot set not at id 0);
* **service times** lognormal with configurable mean and a coefficient
  of variation of 1 (right-skewed like disk response times).

Scale (horizon, rate) is configurable so unit tests run in milliseconds
while full experiment runs reach the paper's load regimes.
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple

from repro.sim.rng import RandomStreams
from repro.workload.distributions import (
    BurstyArrivalProcess,
    CumulativeSampler,
    lognormal_from_mean_cv,
    shuffled_zipf_weights,
)


# Coefficient of variation of read service times: lognormal with cv
# around 1 is the conventional stand-in for disk response times.
_SERVICE_CV = 1.0


class ReadColumns(NamedTuple):
    """The (synthetic) disk trace: one entry per read in each column,
    in arrival order.

    Columns rather than one object per read: a paper-scale trace holds
    ~40k reads, and per-read objects alive next to the query specs
    built from them would add a third to trace generation's peak memory.
    """

    arrivals: List[float]
    service_times: List[float]
    regions: List[int]


@dataclasses.dataclass(frozen=True)
class CelloConfig:
    """Shape parameters of the synthetic trace.

    The one caller, :func:`repro.experiments.runner.build_query_workload`,
    fills every field from the experiment's config.

    Attributes:
        horizon: Trace length in seconds.
        n_items: Number of logical regions (paper: 1024).
        query_utilization: Long-run fraction of the CPU the read
            service times demand; arrival rate is derived from it.
        mean_service: Mean read service time (seconds).
        zipf_skew: Skew of the region-access histogram.
        burst_factor: Rate multiplier inside a flash crowd.
        normal_dwell: Mean seconds between flash crowds.
        burst_dwell: Mean flash-crowd duration in seconds.
    """

    horizon: float
    n_items: int
    query_utilization: float
    mean_service: float
    zipf_skew: float
    burst_factor: float
    normal_dwell: float
    burst_dwell: float

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_items <= 0:
            raise ValueError("n_items must be positive")
        if not 0 < self.query_utilization:
            raise ValueError("query_utilization must be positive")
        if self.mean_service <= 0:
            raise ValueError("mean_service must be positive")

    @property
    def mean_arrival_rate(self) -> float:
        """Average reads/second implied by the utilization target."""
        return self.query_utilization / self.mean_service


def generate_cello_trace(config: CelloConfig, streams: RandomStreams) -> ReadColumns:
    """Generate the synthetic read trace.

    The MMPP's *long-run* rate is matched to
    :attr:`CelloConfig.mean_arrival_rate`, so the trace's average CPU
    demand hits the configured ``query_utilization`` while individual
    flash crowds push instantaneous load well above it.
    """
    arrivals_rng = streams.stream("cello-arrivals")
    region_rng = streams.stream("cello-regions")
    service_rng = streams.stream("cello-service")

    weights = shuffled_zipf_weights(config.n_items, config.zipf_skew, region_rng)
    sampler = CumulativeSampler(weights)

    # Solve for the base (normal-state) rate that yields the target
    # long-run mean given the burst modulation.
    weight_burst = config.burst_dwell / (config.burst_dwell + config.normal_dwell)
    modulation = 1.0 + (config.burst_factor - 1.0) * weight_burst
    base_rate = config.mean_arrival_rate / modulation

    process = BurstyArrivalProcess(
        base_rate=base_rate,
        burst_factor=config.burst_factor,
        normal_dwell=config.normal_dwell,
        burst_dwell=config.burst_dwell,
        rng=arrivals_rng,
    )

    arrivals = process.arrivals_until(config.horizon)
    return ReadColumns(
        arrivals=arrivals,
        service_times=[
            lognormal_from_mean_cv(config.mean_service, _SERVICE_CV, service_rng)
            for _ in arrivals
        ],
        regions=[sampler.sample(region_rng) for _ in arrivals],
    )
