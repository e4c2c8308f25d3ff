"""Failure taxonomy, hazard processes, and the failure model's configuration.

This package models the *generation* of storage subsystem failures:

- :mod:`repro.failures.types` — the paper's four failure categories.
- :mod:`repro.failures.events` — immutable failure-event records.
- :mod:`repro.failures.hazards` — the renewal inter-arrival families.
- :mod:`repro.failures.multipath` — active/passive multipath masking.
- :mod:`repro.failures.raidlayer` — propagation of raw component errors
  up to the RAID layer, where subsystem failures are counted.
- :mod:`repro.failures.backends` — pluggable hazard sources (analytic,
  trace replay, fitted re-simulation).
- :mod:`repro.failures.injector` — the failure model's knobs
  (:class:`~repro.failures.injector.InjectorConfig`) and the
  injection result.

The shared shock processes that create the correlated, bursty
behaviour the paper observes (§5.2.3) are drawn by the batched injector
in :mod:`repro.simulate.vector`, which simulates all of the above over
a fleet.  Only the dependency-free vocabulary modules are re-exported
here: the injector depends on the fleet package, which in turn uses
this package's vocabulary.
"""

from repro.failures.types import (
    ALL_FAILURE_TYPES,
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
    InterconnectCause,
)
from repro.failures.events import ComponentError, FailureEvent

__all__ = [
    "ALL_FAILURE_TYPES",
    "EXTENDED_FAILURE_TYPES",
    "FAILURE_TYPE_ORDER",
    "FailureType",
    "InterconnectCause",
    "ComponentError",
    "FailureEvent",
]
