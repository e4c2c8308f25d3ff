"""Multi-seed batch runs: quantify a metric's seed-to-seed spread.

One simulation is one realization of a stochastic fleet; any headline
number (an AFR, a burst fraction, an inflation factor) carries sampling
noise.  The batch runner re-simulates under several seeds and reports
each metric's mean and spread, which is how the shape-check bands used
throughout the benches were chosen.

The per-seed simulations route through the :mod:`repro.runtime`
scheduler, so they run on the worker pool when ``jobs > 1`` (or when
the supplied runtime context is configured for parallelism) and reuse
cached ``SimulationResult``\\ s when a persistent cache is warm.  Metric
callables run in the parent process — they are cheap next to the
simulation, and this keeps them free to be lambdas/closures, which a
process pool could not ship to workers.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.runconfig import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runtime.context import RuntimeContext

MetricFn = Callable[[FailureDataset], float]


@dataclasses.dataclass(frozen=True)
class MetricSpread:
    """One metric's values across seeds.

    Attributes:
        name: metric label.
        values: per-seed values (seed order).
        mean / std: summary statistics (population std).
    """

    name: str
    values: Sequence[float]
    mean: float
    std: float

    @property
    def relative_std(self) -> float:
        """std / |mean| (0 when the mean is 0)."""
        return 0.0 if self.mean == 0.0 else self.std / abs(self.mean)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%s: %.4g +/- %.2g (n=%d)" % (
            self.name,
            self.mean,
            self.std,
            len(self.values),
        )


def batch_run(
    metrics: Mapping[str, MetricFn],
    scenario: str = "paper-default",
    scale: float = 0.01,
    seeds: Sequence[int] = (1, 2, 3),
    runtime: Optional["RuntimeContext"] = None,
    jobs: int = 1,
    config: Optional[RunConfig] = None,
) -> Dict[str, MetricSpread]:
    """Run a scenario under several seeds and evaluate metrics on each.

    Args:
        metrics: name -> function over the resulting dataset.
        scenario: scenario name (see :data:`repro.simulate.scenario.SCENARIOS`).
        scale: fleet scale per run.
        seeds: root seeds (one simulation each).
        runtime: execution context; defaults to a serial, non-persistent
            one (matching the historical behavior of simulating inline).
        jobs: worker processes for the default runtime (ignored when
            ``runtime`` is given — its own configuration wins).
        config: hazard backend of every simulation
            (``RunConfig.from_env()`` when None).

    Returns:
        Per-metric spreads, in metric order.

    Raises:
        AnalysisError: for empty metric sets, fewer than 2 seeds, or a
            metric callable returning NaN/infinity (the offending
            metric and seed are named rather than letting a non-finite
            value silently poison :attr:`MetricSpread.mean`).
    """
    if not metrics:
        raise AnalysisError("no metrics given")
    if len(seeds) < 2:
        raise AnalysisError("need at least 2 seeds to measure spread")
    from repro.runtime import Job, RuntimeConfig, RuntimeContext, Scheduler

    if runtime is None:
        runtime = RuntimeContext(
            RuntimeConfig(jobs=jobs, cache_enabled=False)
        )
    with obs.span(
        "experiments.batch_run", scenario=scenario, seeds=len(seeds)
    ):
        config = config or RunConfig.from_env()
        sim_jobs = [
            Job.scenario(scenario, scale, seed, config=config) for seed in seeds
        ]
        results = Scheduler(runtime).run(sim_jobs)
        collected: Dict[str, List[float]] = {name: [] for name in metrics}
        for seed, result in zip(seeds, results):
            dataset = result.dataset
            for name, metric in metrics.items():
                value = float(metric(dataset))
                if not math.isfinite(value):
                    raise AnalysisError(
                        "metric %r returned a non-finite value (%r) for seed %d"
                        % (name, value, seed)
                    )
                collected[name].append(value)
    spreads: Dict[str, MetricSpread] = {}
    for name, values in collected.items():
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        spreads[name] = MetricSpread(
            name=name, values=tuple(values), mean=mean, std=math.sqrt(variance)
        )
    return spreads
