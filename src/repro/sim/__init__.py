"""Discrete-event simulation substrate.

This subpackage knows nothing about databases or transactions: it
provides an event loop whose cancellable events are addressed by
packed ``int`` tokens (:mod:`repro.sim.engine`), deterministic named
random streams (:mod:`repro.sim.rng`), and small statistics helpers
(:mod:`repro.sim.stats`) used throughout the upper layers.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.stats import OnlineStats, WindowedCounts

__all__ = [
    "OnlineStats",
    "RandomStreams",
    "Simulator",
    "WindowedCounts",
]
