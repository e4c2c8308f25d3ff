"""Experiment plumbing: context (cached simulations), results, registry."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runtime.context import RuntimeContext

from repro import obs
from repro.core.dataset import FailureDataset
from repro.errors import SpecificationError
from repro.failures.injector import InjectorConfig
from repro.fleet.spec import FleetSpec
from repro.runconfig import RunConfig
from repro.simulate.engine import SimulationEngine
from repro.simulate.scenario import run_scenario

#: Default fleet scale for experiments: 1:20 of the paper's 39,000
#: systems (~2,000 systems, ~90,000 disks) — large enough for the
#: paper's significance tests to resolve, small enough for seconds-long
#: runs.
DEFAULT_SCALE = 0.05
DEFAULT_SEED = 1


@dataclasses.dataclass
class ExperimentContext:
    """Shared state for a batch of experiments.

    Simulating the fleet dominates experiment cost, and most figures
    read the *same* paper-default simulation, so the context caches one
    dataset per scenario name.

    Attributes:
        scale: fleet scale for all scenarios run through this context.
        seed: root random seed.
        via_logs: route datasets through the AutoSupport log pipeline.
        runtime: optional :class:`repro.runtime.RuntimeContext`; when
            set, scenario lookups route through its content-addressed
            result cache (and count in its metrics) instead of
            simulating directly.
        shards: split every scenario simulation into this many
            spill-to-disk shards (see :mod:`repro.runtime.shard`);
            sharding always routes through a runtime context (a default
            one is built lazily when none was provided).
        config: hazard backend of every simulation
            (``RunConfig.from_env()`` when not given), the scenarios'
            and :meth:`simulate`'s alike.
    """

    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED
    via_logs: bool = False
    runtime: Optional["RuntimeContext"] = None
    shards: int = 1
    # A lambda rather than the bound method: from_env is looked up when
    # a context is built, so a test that patches it sees every one.
    config: RunConfig = dataclasses.field(
        default_factory=lambda: RunConfig.from_env()
    )

    def __post_init__(self) -> None:
        self._results: Dict[str, object] = {}

    def result(self, scenario: str = "paper-default"):
        """The (cached) full simulation result of a named scenario."""
        if scenario not in self._results:
            if self.runtime is None and self.shards != 1:
                # Sharded execution needs a pool + shard cache; build
                # the default serial context on first use.
                from repro.runtime.context import RuntimeContext

                self.runtime = RuntimeContext()
            if self.runtime is not None:
                result = self.runtime.run_scenario(
                    scenario,
                    scale=self.scale,
                    seed=self.seed,
                    via_logs=self.via_logs,
                    shards=self.shards,
                    config=self.config,
                )
            else:
                result = run_scenario(
                    scenario,
                    scale=self.scale,
                    seed=self.seed,
                    via_logs=self.via_logs,
                    config=self.config,
                )
            self._results[scenario] = result
        return self._results[scenario]

    def dataset(self, scenario: str = "paper-default") -> FailureDataset:
        """The (cached) dataset of a named scenario."""
        return self.result(scenario).dataset

    def simulate(self, injector_config: InjectorConfig) -> FailureDataset:
        """A fresh paper-default simulation under ``injector_config``.

        Sensitivity sweeps vary the failure model through this one
        entry point.  Results are not cached; each run counts one
        ``sim.runs`` on the attached runtime's metrics.
        """
        engine = SimulationEngine(
            FleetSpec.paper_default(scale=self.scale),
            injector_config=injector_config,
            config=self.config,
        )
        dataset = engine.run(seed=self.seed).dataset
        if self.runtime is not None:
            self.runtime.metrics.increment("sim.runs")
        return dataset


@dataclasses.dataclass
class ExperimentResult:
    """Output of one experiment.

    Attributes:
        experiment_id: registry id, e.g. ``"fig4b"``.
        title: what the paper artifact shows.
        text: rendered tables (what the CLI prints).
        data: structured series behind the tables.
        checks: named shape assertions vs the paper (all should hold).
    """

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object]
    checks: Dict[str, bool]

    @property
    def passed(self) -> bool:
        """Whether every shape check held."""
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        """Names of the checks that failed."""
        return [name for name, ok in self.checks.items() if not ok]


Runner = Callable[[ExperimentContext], ExperimentResult]

EXPERIMENTS: Dict[str, Tuple[str, Runner]] = {}


def register(experiment_id: str, title: str) -> Callable[[Runner], Runner]:
    """Decorator registering an experiment runner under an id."""

    def decorate(runner: Runner) -> Runner:
        if experiment_id in EXPERIMENTS:
            raise SpecificationError(
                "experiment %r registered twice" % experiment_id
            )
        EXPERIMENTS[experiment_id] = (title, runner)
        return runner

    return decorate


def run_experiment(
    experiment_id: str, context: Optional[ExperimentContext] = None
) -> ExperimentResult:
    """Run one experiment by id (creating a default context if needed)."""
    try:
        _title, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise SpecificationError(
            "unknown experiment %r (have: %s)"
            % (experiment_id, ", ".join(sorted(EXPERIMENTS)))
        ) from None
    with obs.span("experiment.%s" % experiment_id):
        result = runner(context or ExperimentContext())
    obs.inc("experiments.run")
    if not result.passed:
        obs.inc("experiments.failed_checks", len(result.failed_checks()))
    return result
