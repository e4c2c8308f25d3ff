"""Batched hazard-sampling simulation engine for paper-scale fleets.

The failure model executed stage-major — each stage once over every
cohort, each cohort drawing from its own stream — writing straight into
the columnar :class:`~repro.core.columns.EventTable` — see the package
modules:

- :mod:`~repro.simulate.vector.cohorts` — grouping by rate-determining
  configuration into one set of cohort-major arrays;
- :mod:`~repro.simulate.vector.sampling` — batched shock / renewal /
  independent candidate draws;
- :mod:`~repro.simulate.vector.queueing` — the lock-step disk
  replacement chain over every chained bay;
- :mod:`~repro.simulate.vector.emit` — columnar emission and the
  lifetime-table update;
- :mod:`~repro.simulate.vector.engine` — the injector facade that
  :class:`~repro.simulate.engine.SimulationEngine` runs.
"""

from repro.simulate.vector.cohorts import Cohort, CohortSet, group_cohorts
from repro.simulate.vector.engine import (
    VectorFailureInjector,
    build_frame,
    vector_engine_enabled,
)

__all__ = [
    "Cohort",
    "CohortSet",
    "VectorFailureInjector",
    "build_frame",
    "group_cohorts",
    "vector_engine_enabled",
]
