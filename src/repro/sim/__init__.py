"""Deterministic discrete-event simulation engine and resources."""

from repro.sim.aio import SimFuture, SimLoop, SimTask
from repro.sim.engine import Simulation, SimulationError
from repro.sim.resources import ThroughputResource

__all__ = [
    "SimFuture",
    "SimLoop",
    "SimTask",
    "Simulation",
    "SimulationError",
    "ThroughputResource",
]
