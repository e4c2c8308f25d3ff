"""Batched hazard-sampling simulation engine for paper-scale fleets.

Same failure model as the legacy per-unit injector, executed
stage-major — each stage once over every cohort, each cohort drawing
from its own stream — writing straight into the columnar
:class:`~repro.core.columns.EventTable` — see the package modules:

- :mod:`~repro.simulate.vector.cohorts` — grouping by rate-determining
  configuration into one set of cohort-major arrays;
- :mod:`~repro.simulate.vector.sampling` — batched shock / renewal /
  independent candidate draws;
- :mod:`~repro.simulate.vector.queueing` — the lock-step disk
  replacement chain over every chained bay;
- :mod:`~repro.simulate.vector.emit` — columnar emission and the
  lifetime-table update;
- :mod:`~repro.simulate.vector.engine` — the facade and
  :func:`~repro.simulate.vector.engine.make_engine`, which picks the
  engine a :class:`~repro.runconfig.RunConfig` names.
"""

from repro.runconfig import VECTOR_ENGINE_ENV
from repro.simulate.vector.cohorts import Cohort, CohortSet, group_cohorts
from repro.simulate.vector.engine import (
    VectorFailureInjector,
    VectorSimulationEngine,
    build_frame,
    make_engine,
    vector_engine_enabled,
)

__all__ = [
    "Cohort",
    "CohortSet",
    "VECTOR_ENGINE_ENV",
    "VectorFailureInjector",
    "VectorSimulationEngine",
    "build_frame",
    "group_cohorts",
    "make_engine",
    "vector_engine_enabled",
]
