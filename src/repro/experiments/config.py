"""Experiment configuration.

An :class:`ExperimentConfig` pins down everything a run needs: the
workload scale, the update trace, the policy and its knobs, the penalty
profile, and the master seed.  :data:`SCALES` provides three presets —
``smoke`` for unit tests, ``small`` for benchmarks, and ``paper`` for
full reproduction runs (1024 items, as in the paper).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple, Type

from repro.core.baselines import ImuPolicy, OduPolicy
from repro.core.elastic import ElasticConfig, ElasticPolicy
from repro.core.qmf import QmfPolicy
from repro.core.unit import UnitConfig, UnitPolicy
from repro.core.usm import PenaltyProfile
from repro.db.policy_api import ServerPolicy
from repro.faults.scenario import FaultScenario
from repro.obs.config import ObsConfig
from repro.workload.updates import STANDARD_UPDATE_TRACES

# "elastic" is the related-work baseline (Buttazzo-style uniform period
# stretching); the paper's own comparison set is the first four.
POLICY_CLASSES: Dict[str, Type[ServerPolicy]] = {
    "unit": UnitPolicy,
    "imu": ImuPolicy,
    "odu": OduPolicy,
    "qmf": QmfPolicy,
    "elastic": ElasticPolicy,
}
POLICIES = tuple(POLICY_CLASSES)


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """Workload size preset.

    Attributes:
        name: Preset label.
        horizon: Trace length (seconds).
        n_items: Database size S (paper: 1024).
        query_utilization: Long-run CPU demand of the query stream.
        mean_query_service: Mean query execution time (seconds).
        mean_update_exec: Mean update execution time (seconds).
    """

    name: str
    horizon: float
    n_items: int
    query_utilization: float = 0.65
    mean_query_service: float = 0.05
    # Updates are disk *writes* — substantially slower than reads (the
    # paper's 30k med-volume updates carry 75% CPU).  3x the mean read
    # service reproduces the queries-outnumber-updates regime.
    mean_update_exec: float = 0.15


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(name="smoke", horizon=120.0, n_items=64),
    "small": ExperimentScale(name="small", horizon=400.0, n_items=128),
    "paper": ExperimentScale(name="paper", horizon=3000.0, n_items=1024),
}


@dataclasses.dataclass
class ExperimentConfig:
    """Full specification of one simulation run."""

    policy: str = "unit"
    update_trace: str = "med-unif"
    profile: PenaltyProfile = dataclasses.field(default_factory=PenaltyProfile.naive)
    seed: int = 7
    scale: ExperimentScale = dataclasses.field(default_factory=lambda: SCALES["small"])

    # Query-trace shape (beyond the scale preset).  The default is the
    # calibration DESIGN.md documents: Zipf 1.3 access skew.  Every
    # trace has the same flash crowds (``repro.experiments.runner``'s
    # burst constants), deadlines are always drawn from
    # [mean response, 3 x mean response]
    # (``repro.workload.queries.deadline_range``), and every query asks
    # for 90% freshness (``repro.workload.queries``).
    zipf_skew: float = 1.3
    items_per_query: int = 1

    # Policy knobs (None = defaults derived from the profile/scale).
    unit: Optional[UnitConfig] = None
    elastic: Optional[ElasticConfig] = None

    # Bookkeeping.
    keep_records: bool = False

    # Observability (None = disabled: the server runs with the shared
    # NULL_RECORDER and pays only a guard per would-be event).  The
    # workload key deliberately excludes this field — tracing does not
    # shape the traces.
    obs: Optional[ObsConfig] = None

    # Fault injection (None = no faults; runs are byte-identical to a
    # config without the field).  Trace-shaping injectors fold into
    # ``workload_key()`` via the scenario's fingerprint, never into
    # ``query_key()`` (they perturb the base query trace after it is
    # generated); a slowdown-only scenario leaves both keys unchanged so
    # paired runs share the cached workload.
    faults: Optional[FaultScenario] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; one of {POLICIES}")
        if self.update_trace not in STANDARD_UPDATE_TRACES:
            raise ValueError(
                f"unknown update trace {self.update_trace!r}; "
                f"one of {sorted(STANDARD_UPDATE_TRACES)}"
            )
        if self.items_per_query < 1:
            raise ValueError("items_per_query must be >= 1")

    def query_key(self) -> str:
        """Content-address of the base query trace this config generates.

        Covers exactly the fields
        :func:`repro.experiments.runner.build_query_workload` reads, plus
        the seed.  Update-trace fields and fault scenarios are left out
        (the base trace is unperturbed), so every cell of a seed's
        update-volume sweep shares one base query trace.  Floats are
        canonicalized with ``float.hex()`` (exact bits).
        """
        scale = self.scale
        return _digest(
            (
                "query-v1",  # bump when query generation changes shape
                str(self.seed),
                scale.horizon.hex(),
                str(scale.n_items),
                scale.query_utilization.hex(),
                scale.mean_query_service.hex(),
                self.zipf_skew.hex(),
                str(self.items_per_query),
            )
        )

    def workload_key(self) -> str:
        """Content-address of the workload this config generates.

        Two configs with equal keys produce byte-identical query and
        update traces: the key hashes :meth:`query_key` with exactly the
        fields :func:`repro.experiments.runner.build_workload` reads on
        top of the base query trace — the update trace, its mean
        execution time, and a trace-shaping fault scenario's fingerprint.
        Policy and penalty profile do not shape the traces, so paired
        runs share one entry.
        """
        parts = (
            "workload-v2",  # bump when trace generation changes shape
            self.query_key(),
            self.update_trace,
            self.scale.mean_update_exec.hex(),
        )
        if self.faults is not None:
            fingerprint = self.faults.workload_fingerprint()
            if fingerprint:
                parts = parts + (fingerprint,)
        return _digest(parts)

    def unit_config(self) -> UnitConfig:
        """The UNIT knobs for this run (default: paper constants with
        the run's penalty profile)."""
        if self.unit is not None:
            return self.unit
        return UnitConfig(profile=self.profile)

    def elastic_config(self) -> ElasticConfig:
        """The elastic-baseline knobs for this run."""
        if self.elastic is not None:
            return self.elastic
        return ElasticConfig()

    def label(self) -> str:
        return f"{self.policy}/{self.update_trace}/{self.profile.name or 'naive'}"


def _digest(parts: Tuple[str, ...]) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def build_experiment(
    policy: str = "unit",
    update_trace: str = "med-unif",
    profile: Optional[PenaltyProfile] = None,
    seed: int = 7,
    scale: str = "small",
    **overrides,
) -> ExperimentConfig:
    """Convenience constructor used by the quickstart and examples.

    Args:
        policy: One of ``unit``, ``imu``, ``odu``, ``qmf``.
        update_trace: One of the nine Table 1 traces (e.g. ``med-unif``).
        profile: Penalty profile; the naive (success-ratio) profile by
            default.
        seed: Master seed for all random streams.
        scale: A :data:`SCALES` preset name.
        **overrides: Any other :class:`ExperimentConfig` field.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; one of {sorted(SCALES)}")
    return ExperimentConfig(
        policy=policy,
        update_trace=update_trace,
        profile=profile or PenaltyProfile.naive(),
        seed=seed,
        scale=SCALES[scale],
        **overrides,
    )
