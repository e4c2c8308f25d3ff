"""Simulation orchestration: clock, engine, and predefined scenarios."""

from repro.simulate.clock import SimulationClock
from repro.simulate.engine import SimulationEngine, SimulationResult
from repro.simulate.scenario import SCENARIOS, run_scenario
from repro.simulate.vector import VectorFailureInjector, vector_engine_enabled

__all__ = [
    "SimulationClock",
    "SimulationEngine",
    "SimulationResult",
    "SCENARIOS",
    "VectorFailureInjector",
    "run_scenario",
    "vector_engine_enabled",
]
