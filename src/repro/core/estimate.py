"""Inverse calibration: estimating the failure model from observed data.

The simulator is driven by shock parameters (share ``rho`` delivered via
shared shocks, per-disk hit probability) that the paper could only
hypothesize (§5.2.3).  This module estimates those parameters *back*
from a failure dataset — simulated or imported — via method-of-moments
style statistics on bursts:

- the share of a type's failures arriving inside bursts approximates
  the shock-delivered share ``rho`` (independent arrivals rarely land
  within 10^4 s of another failure of the same type in one shelf);
- the mean burst size identifies the hit probability through the
  binomial thinning of a shelf's bays.

Both are approximations (documented per function); their value is the
round trip: simulate with known parameters, estimate them back, and
confirm the model is identifiable from the kind of data the paper had.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.bursts import find_bursts
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.topology.components import MAX_DISKS_PER_SHELF
from repro.units import BURST_GAP_SECONDS


@dataclasses.dataclass(frozen=True)
class ShockEstimate:
    """Estimated shock parameters for one failure type.

    Attributes:
        failure_type: the estimated type.
        shock_share: estimated ``rho`` (share of failures delivered via
            shared shocks).
        hit_probability: estimated per-bay hit probability (None when
            too few bursts to estimate).
        n_bursts / n_events: the estimate's sample sizes.
    """

    failure_type: FailureType
    shock_share: float
    hit_probability: Optional[float]
    n_bursts: int
    n_events: int


def estimate_shock_share(
    dataset: FailureDataset,
    failure_type: FailureType,
    gap_threshold: float = BURST_GAP_SECONDS,
) -> float:
    """Estimate ``rho`` as the burst-arriving share of a type's failures.

    Approximation: shock-induced failures land within the shock's
    spread window of each other; independent failures of the same type
    on the same shelf within 10^4 s are rare at observed rates.  The
    estimate biases *low* when shocks hit only one bay (singleton
    "bursts" are invisible) and *high* at very high overall rates.
    """
    typed = FailureDataset(
        events=dataset.events_of_type(failure_type), fleet=dataset.fleet
    )
    total = len(typed.deduplicated())
    if total == 0:
        raise AnalysisError("no %s events" % failure_type.value)
    bursts = find_bursts(typed, "shelf", gap_threshold)
    in_bursts = sum(burst.size for burst in bursts)
    return in_bursts / total


def estimate_hit_probability(
    dataset: FailureDataset,
    failure_type: FailureType,
    n_slots: int = MAX_DISKS_PER_SHELF,
    gap_threshold: float = BURST_GAP_SECONDS,
) -> Optional[float]:
    """Estimate the per-bay hit probability from mean burst size.

    For a shock hitting each of ``n_slots`` bays independently with
    probability ``p``, the observable bursts are the hits conditioned
    on at least 2 (singletons are indistinguishable from independent
    arrivals).  The estimator inverts ``E[K | K >= 2]`` numerically.

    Returns:
        The estimate, or None with fewer than 5 bursts.
    """
    typed = FailureDataset(
        events=dataset.events_of_type(failure_type), fleet=dataset.fleet
    )
    bursts = find_bursts(typed, "shelf", gap_threshold)
    if len(bursts) < 5:
        return None
    mean_size = sum(burst.size for burst in bursts) / len(bursts)

    def conditional_mean(p: float) -> float:
        # E[K | K >= 2] for K ~ Binomial(n_slots, p).
        from math import comb

        numerator = 0.0
        tail = 0.0
        for k in range(2, n_slots + 1):
            mass = comb(n_slots, k) * p**k * (1 - p) ** (n_slots - k)
            numerator += k * mass
            tail += mass
        if tail == 0.0:
            return 2.0
        return numerator / tail

    low, high = 1e-4, 0.999
    for _ in range(80):
        mid = 0.5 * (low + high)
        if conditional_mean(mid) < mean_size:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def estimate_shock_parameters(
    dataset: FailureDataset, failure_type: FailureType
) -> ShockEstimate:
    """Both estimates bundled, with their sample sizes."""
    typed = FailureDataset(
        events=dataset.events_of_type(failure_type), fleet=dataset.fleet
    )
    bursts = find_bursts(typed, "shelf")
    return ShockEstimate(
        failure_type=failure_type,
        shock_share=estimate_shock_share(dataset, failure_type),
        hit_probability=estimate_hit_probability(dataset, failure_type),
        n_bursts=len(bursts),
        n_events=len(typed.deduplicated()),
    )
