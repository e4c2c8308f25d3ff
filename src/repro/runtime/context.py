"""RuntimeContext: cache + metrics + pool configuration in one handle.

Everything in the runtime operates through a context: the scheduler
asks it to run jobs, experiment contexts route scenario lookups through
:meth:`RuntimeContext.run_scenario`, and the CLI builds one per command
from ``--jobs`` / ``--no-cache`` / ``--cache-dir``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional

from repro import obs
from repro.obs.sampler import PROGRESS
from repro.runconfig import RunConfig
from repro.runtime.cache import MISSING, ResultCache
from repro.runtime.jobs import KIND_SCENARIO, Job, execute_job
from repro.runtime.metrics import RuntimeMetrics


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """How a runtime context executes and caches jobs.

    Attributes:
        jobs: worker processes (1 = serial, the default).
        cache_dir: result cache directory (None = the cache default).
        cache_enabled: master cache switch.
        cache_persist: keep the on-disk layer (``False`` = memory-only,
            what the CLI's ``--no-cache`` maps to).
        timeout: per-job timeout in seconds for pooled execution.
        retries: per-job retry budget for failed jobs.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    cache_enabled: bool = True
    cache_persist: bool = True
    timeout: Optional[float] = None
    retries: int = 0


class RuntimeContext:
    """One execution session: a cache, a metrics registry, a pool config.

    Args:
        config: execution/caching knobs (defaults to serial + cached).
        cache: pre-built cache (overrides the config's cache fields).
        metrics: pre-built metrics registry.
    """

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        cache: Optional[ResultCache] = None,
        metrics: Optional[RuntimeMetrics] = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.metrics = metrics or RuntimeMetrics()
        if cache is None:
            cache = ResultCache(
                directory=self.config.cache_dir,
                enabled=self.config.cache_enabled,
                persist=self.config.cache_persist,
                metrics=self.metrics,
            )
        else:
            cache.bind_metrics(self.metrics)
        self.cache = cache
        if obs.OBSERVER.enabled:
            # Exported Prometheus textfiles then carry this context's
            # cache/job counters alongside the observer's own series.
            obs.register_metrics(self.metrics)

    def reset_metrics(self) -> None:
        """Swap in a fresh metrics registry (worker delta reporting)."""
        self.metrics = RuntimeMetrics()
        self.cache.bind_metrics(self.metrics)
        if obs.OBSERVER.enabled:
            obs.register_metrics(self.metrics)

    # -- execution -------------------------------------------------------------

    def run_job(self, job: Job) -> object:
        """Run one job through the cache: hit returns stored, miss executes.

        Scenario executions increment the ``sim.runs`` counter — the
        number of *new* simulations this context (plus any merged
        workers) actually performed; a fully warm cache keeps it at 0.
        """
        key = job.key()
        cached = self.cache.get(key)
        if cached is not MISSING:
            PROGRESS.advance("jobs_cached")
            return cached
        start = time.perf_counter()
        with obs.span("runtime.job", kind=job.kind, name=job.name):
            result = execute_job(job, self)
        self.metrics.observe("job.latency", time.perf_counter() - start)
        PROGRESS.advance("jobs_completed")
        if job.kind == KIND_SCENARIO and job.shards == 1:
            # Sharded scenarios count sim.runs per shard actually
            # executed (inside run_sharded_scenario), not once per job.
            self.metrics.increment("sim.runs")
        self.cache.put(key, result)
        return result

    def run_scenario(
        self,
        name: str,
        scale: float,
        seed: int,
        via_logs: bool = False,
        shards: int = 1,
        config: Optional[RunConfig] = None,
    ):
        """Cached scenario simulation (the experiment-context hook).

        ``config`` is the run's hazard backend (``RunConfig.from_env()``
        when None).
        """
        return self.run_job(
            Job.scenario(name, scale, seed, via_logs, shards, config)
        )

    # -- pool wiring -----------------------------------------------------------

    def pool(self):
        """A worker pool matching this context's configuration."""
        from repro.runtime.pool import WorkerPool

        return WorkerPool(
            jobs=self.config.jobs,
            timeout=self.config.timeout,
            retries=self.config.retries,
            metrics=self.metrics,
        )

    def worker_config(self) -> Dict[str, object]:
        """The picklable cache config shipped to worker processes."""
        return {
            "cache_dir": self.cache.directory,
            "cache_enabled": self.cache.enabled,
            "cache_persist": self.cache.persist,
        }
