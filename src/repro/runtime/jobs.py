"""Jobs: canonical, hashable requests for one simulation or experiment.

A :class:`Job` names *what* to compute — a scenario simulation or a
registered experiment — together with everything the result depends on
(scale, seed, log routing, shards, and the
:class:`~repro.runconfig.RunConfig` choosing the hazard backend).  Its
:meth:`Job.key` is the SHA-256 of a canonical string that also embeds
the package version, which is what makes results content-addressable:
identical keys are guaranteed to denote identical results, so the
cache and the deduplicating scheduler both operate purely on keys.

:func:`execute_payload` is the worker-process entry point used by the
pool: it rebuilds a runtime context from a picklable config dict (one
per worker process, reused across jobs so the in-memory cache layer is
shared) and returns ``(result, metrics snapshot)`` for the parent to
merge.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple

from repro.errors import SpecificationError
from repro.runconfig import RunConfig
from repro.version import __version__

KIND_SCENARIO = "scenario"
KIND_EXPERIMENT = "experiment"

#: The scenario experiments read by default; an experiment job's
#: declared simulation dependency (extra scenarios an experiment pulls
#: in are simulated lazily through the same cached path).
DEFAULT_SCENARIO = "paper-default"


@dataclasses.dataclass(frozen=True)
class Job:
    """One experiment-or-scenario request with a canonical cache key.

    Attributes:
        kind: :data:`KIND_SCENARIO` or :data:`KIND_EXPERIMENT`.
        name: scenario name or experiment id.
        scale: fleet scale relative to the paper's 39,000 systems.
        seed: root random seed.
        via_logs: route datasets through the AutoSupport log pipeline.
        shards: split simulations into this many spill-to-disk shards
            (1 = classic unsharded execution; see
            :mod:`repro.runtime.shard`).
        config: hazard backend (``RunConfig.from_env()`` when not
            given).
    """

    kind: str
    name: str
    scale: float
    seed: int
    via_logs: bool = False
    shards: int = 1
    # A lambda rather than the bound method: from_env is looked up when
    # a Job is built, so a test that patches it sees every construction.
    config: RunConfig = dataclasses.field(
        default_factory=lambda: RunConfig.from_env()
    )

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SCENARIO, KIND_EXPERIMENT):
            raise SpecificationError("unknown job kind %r" % self.kind)
        if self.shards < 1:
            raise SpecificationError(
                "shard count must be >= 1, got %d" % self.shards
            )

    @classmethod
    def scenario(
        cls,
        name: str,
        scale: float,
        seed: int,
        via_logs: bool = False,
        shards: int = 1,
        config: Optional[RunConfig] = None,
    ) -> "Job":
        """A job that simulates the named scenario."""
        return cls(
            KIND_SCENARIO, name, float(scale), int(seed), bool(via_logs),
            int(shards), config or RunConfig.from_env(),
        )

    @classmethod
    def experiment(
        cls,
        name: str,
        scale: float,
        seed: int,
        via_logs: bool = False,
        shards: int = 1,
        config: Optional[RunConfig] = None,
    ) -> "Job":
        """A job that runs the registered experiment ``name``."""
        return cls(
            KIND_EXPERIMENT, name, float(scale), int(seed), bool(via_logs),
            int(shards), config or RunConfig.from_env(),
        )

    def canonical(self) -> str:
        """The canonical string the content-address is derived from.

        Embeds the package version, so a new release invalidates every
        cached result, and :meth:`RunConfig.canonical` — any non-default
        hazard backend — so one config's results are never served to
        another; floats use ``repr`` so the string is exact.

        Sharded jobs (``shards != 1``) append a ``shards=`` term —
        unsharded canonicals are unchanged, so existing cache entries
        stay addressable — because a sharded result carries a
        :class:`~repro.runtime.shard.ShardedInjection` placeholder
        instead of the injector output (which lives and dies in the
        shard workers), and must never be served to a consumer that
        asked for the unsharded result, even though its event table and
        fleet are byte-identical.
        """
        terms = [
            "repro/%s" % __version__,
            "kind=%s" % self.kind,
            "name=%s" % self.name,
            "scale=%r" % float(self.scale),
            "seed=%d" % self.seed,
            "via_logs=%d" % (1 if self.via_logs else 0),
            self.config.canonical(),
        ]
        if self.shards != 1:
            terms.append("shards=%d" % self.shards)
        return " ".join(term for term in terms if term)

    def key(self) -> str:
        """SHA-256 hex digest of :meth:`canonical` — the cache address."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def simulation_job(self) -> "Job":
        """The scenario job this job's result is derived from.

        Scenario jobs are their own simulation; experiment jobs declare
        the default scenario at the same (scale, seed, via_logs).
        """
        if self.kind == KIND_SCENARIO:
            return self
        return Job.scenario(
            DEFAULT_SCENARIO, self.scale, self.seed, self.via_logs,
            self.shards, self.config,
        )

    def payload(self) -> Dict[str, object]:
        """Picklable field dict (inverse of ``Job(**payload)``)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def describe(self) -> str:
        """Short human label, e.g. ``experiment:fig4b@0.05/s1``."""
        return "%s:%s@%g/s%d%s%s" % (
            self.kind,
            self.name,
            self.scale,
            self.seed,
            "/logs" if self.via_logs else "",
            "/x%d" % self.shards if self.shards != 1 else "",
        )


def execute_job(job: Job, runtime) -> object:
    """Actually compute ``job``'s result (no cache involvement).

    Scenario jobs return a
    :class:`~repro.simulate.engine.SimulationResult`; experiment jobs
    return an :class:`~repro.experiments.ExperimentResult`.  The runtime
    context is threaded into experiment contexts so nested scenario
    lookups (e.g. ablation experiments) go through the cache too.
    """
    if job.kind == KIND_SCENARIO:
        if job.shards != 1:
            from repro.runtime.shard import run_sharded_scenario

            return run_sharded_scenario(
                job.name,
                scale=job.scale,
                seed=job.seed,
                runtime=runtime,
                n_shards=job.shards,
                via_logs=job.via_logs,
                config=job.config,
            )
        from repro.simulate.scenario import run_scenario

        return run_scenario(
            job.name,
            scale=job.scale,
            seed=job.seed,
            via_logs=job.via_logs,
            config=job.config,
        )
    from repro.experiments import ExperimentContext, run_experiment

    context = ExperimentContext(
        scale=job.scale,
        seed=job.seed,
        via_logs=job.via_logs,
        runtime=runtime,
        shards=job.shards,
        config=job.config,
    )
    return run_experiment(job.name, context)


#: Per-worker-process runtime contexts, keyed by config, so a pool
#: worker reuses one memory cache across every job it executes.
_WORKER_RUNTIMES: Dict[Tuple, object] = {}


def execute_payload(payload: Dict[str, object]) -> Tuple[object, Dict[str, object]]:
    """Worker entry point: run one job from its picklable payload.

    Returns ``(result, metrics snapshot)``; the parent merges the
    snapshot so counters like ``sim.runs`` and ``cache.hit`` stay
    accurate across processes.  The metrics registry is reset per call
    (the snapshot is a delta), while the cache persists per process.
    """
    from repro.runtime.context import RuntimeConfig, RuntimeContext

    config: Dict[str, object] = dict(payload["config"])  # type: ignore[arg-type]
    config_key = tuple(sorted(config.items()))
    runtime = _WORKER_RUNTIMES.get(config_key)
    if runtime is None:
        runtime = RuntimeContext(RuntimeConfig(jobs=1, **config))
        _WORKER_RUNTIMES[config_key] = runtime
    runtime.reset_metrics()
    job = Job(**payload["job"])  # type: ignore[arg-type]
    result = runtime.run_job(job)
    return result, runtime.metrics.snapshot()
