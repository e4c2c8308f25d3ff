"""Job-based execution runtime: worker pool, result cache, run metrics.

The runtime turns "simulate a fleet / run an experiment" into
:class:`Job` values with content-addressed keys, executes them through
a deduplicating :class:`Scheduler` over a :class:`WorkerPool` (process
parallelism with a serial fallback), and memoizes results in a
:class:`ResultCache` (memory + on-disk pickles).  :class:`RuntimeMetrics`
counts what actually happened — jobs run, cache hits, simulations
performed — across parent and worker processes alike.

Typical use::

    from repro.runtime import Job, RuntimeConfig, RuntimeContext, Scheduler

    runtime = RuntimeContext(RuntimeConfig(jobs=4))
    jobs = [Job.experiment(eid, scale=0.05, seed=1) for eid in ids]
    results = Scheduler(runtime).run(jobs)      # submission order
    print(runtime.metrics.report())

Guarantees: pooled results are bit-identical to serial execution for
any ``jobs`` value, result order always matches submission order, and
with a warm cache no new simulations are performed (``sim.runs`` stays
0).  Sharded runs (``Job(..., shards=N)``, ``repro run --shards N``)
partition the fleet into spill-to-disk shards whose merged event table
is byte-identical to the unsharded run — see :mod:`repro.runtime.shard`
and ``docs/RUNTIME.md`` for the architecture and cache invalidation
rules.
"""

from repro.runtime.cache import (
    DEFAULT_MAX_ENTRIES,
    MISSING,
    CacheStats,
    ResultCache,
    default_cache_dir,
)
from repro.runtime.context import RuntimeConfig, RuntimeContext
from repro.runtime.jobs import (
    KIND_EXPERIMENT,
    KIND_SCENARIO,
    Job,
    execute_job,
    execute_payload,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pool import WorkerPool
from repro.runtime.scheduler import Scheduler
from repro.runtime.shard import (
    ShardMeta,
    ShardPlan,
    ShardSpec,
    run_sharded_scenario,
)

__all__ = [
    "CacheStats",
    "DEFAULT_MAX_ENTRIES",
    "Job",
    "KIND_EXPERIMENT",
    "KIND_SCENARIO",
    "MISSING",
    "ResultCache",
    "RuntimeConfig",
    "RuntimeContext",
    "RuntimeMetrics",
    "Scheduler",
    "ShardMeta",
    "ShardPlan",
    "ShardSpec",
    "WorkerPool",
    "default_cache_dir",
    "execute_job",
    "execute_payload",
    "run_sharded_scenario",
]
