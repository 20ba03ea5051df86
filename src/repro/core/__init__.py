"""The paper's contribution: the User Satisfaction Metric, the UNIT
feedback framework, and the competitor policies (IMU, ODU, QMF).
"""

from repro.core.admission import AdmissionController
from repro.core.baselines import ImuPolicy, OduPolicy
from repro.core.controller import ControlSignal, LoadBalancingController
from repro.core.elastic import ElasticConfig, ElasticPolicy
from repro.core.lottery import LotteryScheduler
from repro.core.modulation import UpdateFrequencyModulator
from repro.core.qmf import QmfPolicy
from repro.core.tickets import TicketBook
from repro.core.unit import UnitConfig, UnitPolicy
from repro.core.usm import PenaltyProfile, UsmAccumulator, UsmWindow

__all__ = [
    "AdmissionController",
    "ControlSignal",
    "ElasticConfig",
    "ElasticPolicy",
    "ImuPolicy",
    "LoadBalancingController",
    "LotteryScheduler",
    "OduPolicy",
    "PenaltyProfile",
    "QmfPolicy",
    "TicketBook",
    "UnitConfig",
    "UnitPolicy",
    "UpdateFrequencyModulator",
    "UsmAccumulator",
    "UsmWindow",
]
