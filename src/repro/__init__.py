"""repro — reproduction of the FAST '08 storage subsystem failure study.

The library has three tiers:

1. **Substrates** — a storage fleet simulator
   (:mod:`repro.topology`, :mod:`repro.fleet`, :mod:`repro.failures`,
   :mod:`repro.raid`) and an AutoSupport-style log pipeline
   (:mod:`repro.autosupport`), standing in for NetApp's proprietary
   field data.
2. **Statistics** — :mod:`repro.stats`: ECDFs, MLE distribution fits,
   T-tests, confidence intervals.
3. **Analyses** — :mod:`repro.core`: the paper's actual contribution —
   AFR breakdowns by failure type and hardware model, multipath impact,
   time-between-failure burstiness, and failure correlation — plus a
   findings engine checking the paper's eleven findings.

Quickstart::

    import repro

    result = repro.run_scenario("paper-default", scale=0.01, seed=7)
    dataset = result.dataset
    print(dataset.afr_table())
"""

from repro.version import __version__
from repro.errors import ReproError
from repro.rng import RandomSource
from repro.failures.types import FailureType, InterconnectCause
from repro.failures.events import ComponentError, FailureEvent
from repro.failures.injector import InjectorConfig, InjectionResult
from repro.fleet.spec import ClassSpec, FleetSpec
from repro.fleet.fleet import Fleet
from repro.fleet.builder import build_fleet
from repro.topology.classes import SystemClass
from repro.simulate.engine import SimulationEngine, SimulationResult
from repro.simulate.vector.engine import VectorFailureInjector
from repro.simulate.scenario import SCENARIOS, run_scenario
from repro.core.dataset import FailureDataset

__all__ = [
    "__version__",
    "ReproError",
    "RandomSource",
    "FailureType",
    "InterconnectCause",
    "ComponentError",
    "FailureEvent",
    "InjectorConfig",
    "InjectionResult",
    "ClassSpec",
    "FleetSpec",
    "Fleet",
    "build_fleet",
    "SystemClass",
    "SimulationEngine",
    "SimulationResult",
    "VectorFailureInjector",
    "SCENARIOS",
    "run_scenario",
    "FailureDataset",
]
