"""Counterfactual ("what-if") analyses over a recorded failure history.

The paper's design implications invite questions of the form *"what
would this fleet's AFR have been if ..."*.  Because every simulated
event carries its root cause, some counterfactuals can be answered by
editing the history instead of re-simulating:

- **what-if dual path everywhere** — network-path interconnect failures
  on single-path systems would have been masked with the failover
  success probability; drop them accordingly.
- **what-if no problematic family** — replace Disk H systems' excess
  failures by the family-free baseline (here: simply exclude them, the
  paper's own Fig. 4(b) treatment).

These operate on any dataset whose events carry causes — simulated or
imported — and are deterministic given the seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.fleet.calibration import MULTIPATH_MASK_PROBABILITY


def counterfactual_dual_path_everywhere(
    dataset: FailureDataset,
    mask_probability: float = MULTIPATH_MASK_PROBABILITY,
    seed: int = 0,
) -> FailureDataset:
    """The history had every system been dual-path.

    Each physical interconnect failure on a *single-path* system whose
    cause is maskable (network path) is removed with
    ``mask_probability`` — the same masking the injector applies to
    real dual-path systems.  Failures with unknown causes are kept
    (conservative).

    Args:
        dataset: events + fleet; events should carry interconnect causes.
        mask_probability: failover success probability.
        seed: determinism of the per-event masking draws.

    Returns:
        A new dataset sharing the fleet, with masked events removed.
    """
    if not 0.0 <= mask_probability <= 1.0:
        raise AnalysisError("mask probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    kept = []
    for event in dataset.events:
        if (
            event.failure_type is FailureType.PHYSICAL_INTERCONNECT
            and not event.dual_path
            and event.cause is not None
            and event.cause.maskable_by_multipath
            and rng.random() < mask_probability
        ):
            continue
        kept.append(event)
    return FailureDataset(events=kept, fleet=dataset.fleet)


def expected_dual_path_everywhere_reduction(
    dataset: FailureDataset,
    mask_probability: float = MULTIPATH_MASK_PROBABILITY,
) -> float:
    """Closed-form expected subsystem-AFR reduction of the counterfactual.

    ``maskable single-path interconnect events x mask probability``
    over all events — no randomness, handy for sanity-checking the
    sampled counterfactual.
    """
    if not len(dataset):
        raise AnalysisError("no events to analyze")
    maskable = sum(
        1
        for event in dataset.events
        if event.failure_type is FailureType.PHYSICAL_INTERCONNECT
        and not event.dual_path
        and event.cause is not None
        and event.cause.maskable_by_multipath
    )
    return mask_probability * maskable / len(dataset)


def counterfactual_without_family(
    dataset: FailureDataset, family: Optional[str] = None
) -> FailureDataset:
    """The history had the problematic disk family never shipped.

    Thin wrapper over the dataset's exclusion filter, named for
    discoverability next to the other counterfactuals.
    """
    if family is None:
        return dataset.excluding_disk_family()
    return dataset.excluding_disk_family(family)


def counterfactual_without_type(
    dataset: FailureDataset,
    failure_type: FailureType,
    effectiveness: float = 1.0,
    seed: int = 0,
) -> FailureDataset:
    """The history had a perfect (or partial) resiliency mechanism for
    one failure type.

    The paper's future work asks how to "design resiliency mechanisms
    targeting individual failure types"; the first question is which
    type is worth targeting.  This counterfactual removes the targeted
    type's failures (each with probability ``effectiveness``) so the
    marginal benefit can be ranked per class.

    Args:
        dataset: events + fleet.
        failure_type: the targeted type.
        effectiveness: share of the type's failures the mechanism
            would absorb (1.0 = perfect).
        seed: determinism of partial absorption.
    """
    if not 0.0 <= effectiveness <= 1.0:
        raise AnalysisError("effectiveness must be in [0, 1]")
    rng = np.random.default_rng(seed)
    kept = []
    for event in dataset.events:
        if event.failure_type is failure_type and (
            effectiveness >= 1.0 or rng.random() < effectiveness
        ):
            continue
        kept.append(event)
    return FailureDataset(events=kept, fleet=dataset.fleet)
