"""End-to-end simulation: spec -> fleet -> failures -> (logs ->) dataset.

The engine is the one-stop entry point the examples and benchmarks use;
failures come from the batched
:class:`~repro.simulate.vector.engine.VectorFailureInjector`.  With
``via_logs=True`` it exercises the full pipeline the paper's
authors faced: the simulated fleet is rendered to AutoSupport-style
logs plus a configuration snapshot, and the analysis dataset is rebuilt
by *parsing* those logs — the direct in-memory events are never handed
to the analyses.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence

from repro import obs
from repro.autosupport.parser import parse_archive
from repro.autosupport.writer import LogArchive, write_logs
from repro.core.dataset import FailureDataset
from repro.failures.injector import InjectionResult, InjectorConfig
from repro.fleet.builder import build_fleet
from repro.fleet.fleet import Fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.runconfig import RunConfig
from repro.simulate.clock import SimulationClock
from repro.simulate.vector.engine import VectorFailureInjector
from repro.topology.classes import SystemClass


@dataclasses.dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes:
        spec: the fleet specification used.
        seed: the root random seed.
        fleet: the materialized (and failure-mutated) fleet, the same
            for sharded and unsharded runs.
        injection: raw injector output (a clear-error placeholder for
            sharded runs, whose injections live and die in the shard
            workers).
        dataset: the analysis-ready dataset (parsed from logs when the
            run used ``via_logs``).
        archive: the rendered log archive (None unless requested).
    """

    spec: FleetSpec
    seed: int
    fleet: Fleet
    injection: Optional[InjectionResult]
    dataset: FailureDataset
    archive: Optional[LogArchive] = None


class SimulationEngine:
    """Runs complete simulations from a spec (see module docstring)."""

    def __init__(
        self,
        spec: FleetSpec,
        injector_config: Optional[InjectorConfig] = None,
        clock: SimulationClock = SimulationClock(),
        selection: Optional[Mapping[SystemClass, Sequence[int]]] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        """``config`` is the run's configuration (``RunConfig.from_env()``
        when None); the injector takes its hazard backend from it."""
        self.spec = spec
        self.injector = VectorFailureInjector(
            injector_config, config or RunConfig.from_env()
        )
        self.clock = clock
        #: Optional sub-fleet to build (per class, global system indices);
        #: see :func:`repro.fleet.builder.build_fleet`.  Shard workers
        #: set this to simulate only their cells.
        self.selection = selection

    def run(self, seed: int = 0, via_logs: bool = False) -> SimulationResult:
        """Simulate once.

        Args:
            seed: root seed; identical seeds give identical results.
            via_logs: route the dataset through the log writer/parser
                (slower; exercises the full AutoSupport pipeline).
        """
        source = RandomSource(seed)
        with obs.span("simulate.run", seed=seed, via_logs=via_logs):
            fleet = build_fleet(self.spec, source, selection=self.selection)
            injection = self.injector.inject(fleet, source)
            if obs.OBSERVER.fleet_events.enabled:
                # The topology record the health aggregator needs as an
                # AFR denominator; emitted after injection so the disk
                # count includes replacements (Table 1's convention).
                obs.emit(
                    "fleet",
                    0.0,
                    seed=seed,
                    systems=fleet.system_count,
                    shelves=fleet.shelf_count,
                    raid_groups=fleet.raid_group_count,
                    disks=fleet.disk_count_ever,
                    duration_seconds=fleet.duration_seconds,
                )
            archive: Optional[LogArchive] = None
            if via_logs:
                with obs.span("simulate.logs.write"):
                    archive = write_logs(injection, self.clock)
                with obs.span("simulate.logs.parse"):
                    dataset = parse_archive(archive, self.clock, fleet=fleet)
            else:
                dataset = FailureDataset.from_injection(injection)
        # Count from the columnar table / lazy batch: len(injection.events)
        # would materialize every dataclass just to take a length.
        obs.inc("sim.events", injection.n_events())
        obs.inc("sim.recovered_errors", injection.n_recovered())
        return SimulationResult(
            spec=self.spec,
            seed=seed,
            fleet=fleet,
            injection=injection,
            dataset=dataset,
            archive=archive,
        )
