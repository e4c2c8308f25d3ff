"""Disk-age analysis: failure rate as a function of time in service.

The disk-vendor literature the paper builds on (its refs [4, 6, 21])
describes early-life ("infant mortality") failure elevation.  The
calibrated simulator is age-homogeneous by default — this module is how
one *verifies* that, and how the optional
:attr:`~repro.failures.injector.InjectorConfig.infant_mortality_factor`
shows up in the data when enabled.  The estimator is exposure-correct:
each disk contributes service time to every age bucket its lifetime
crosses, and each failure lands in the bucket of the disk's age at
occurrence.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from repro.core.afr import AFREstimate, afr_estimate
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.fleet.fleet import sequential_sum
from repro.units import SECONDS_PER_DAY, seconds_to_years

#: Default age bucket edges, in days of disk service.
DEFAULT_AGE_EDGES_DAYS = (0.0, 90.0, 365.0, 730.0, float("inf"))


@dataclasses.dataclass(frozen=True)
class AgeBucket:
    """One age bucket's disk-failure rate.

    Attributes:
        low_days / high_days: bucket bounds (disk age).
        estimate: the AFR estimate for disks while inside this age band.
    """

    low_days: float
    high_days: float
    estimate: AFREstimate

    @property
    def label(self) -> str:
        """Human-readable bucket label."""
        if self.high_days == float("inf"):
            return ">= %.0f d" % self.low_days
        return "%.0f-%.0f d" % (self.low_days, self.high_days)


def disk_afr_by_age(
    dataset: FailureDataset,
    edges_days: Sequence[float] = DEFAULT_AGE_EDGES_DAYS,
) -> List[AgeBucket]:
    """Disk-failure AFR per disk-age bucket.

    Args:
        dataset: events + fleet.
        edges_days: increasing bucket edges in days (last may be inf).

    Returns:
        One bucket per edge pair; exposure splits per-disk lifetimes
        across buckets, failures land in the age bucket of occurrence.
    """
    edges = [edge * SECONDS_PER_DAY for edge in edges_days]
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise AnalysisError("edges must be strictly increasing")

    # Each disk's service time, split across the buckets it crosses and
    # summed disk by disk in lifetime-table order.
    fleet = dataset.fleet
    life = np.maximum(0.0, fleet.service_end(dataset.duration_seconds) - fleet.disk_install)
    exposure = []
    for low, high in zip(edges, edges[1:]):
        overlap = np.minimum(life, high) - low
        exposure.append(sequential_sum(overlap[overlap > 0.0]))

    # Each disk failure lands in the bucket of its disk's age.
    table = dataset.table
    failures = table.type_mask(FailureType.DISK)
    rows = fleet.disk_rows(table.disk_ids.values)[table.disk_codes[failures]]
    known = rows >= 0
    age = table.occur_time[failures][known] - fleet.disk_install[rows[known]]
    bucket = np.searchsorted(edges, age, side="right") - 1
    counts = np.bincount(
        bucket[(bucket >= 0) & (bucket < len(edges) - 1)], minlength=len(edges) - 1
    ).tolist()

    buckets: List[AgeBucket] = []
    for index, (low, high) in enumerate(zip(edges, edges[1:])):
        years = seconds_to_years(exposure[index])
        if years <= 0.0:
            continue
        buckets.append(
            AgeBucket(
                low_days=low / SECONDS_PER_DAY,
                high_days=high / SECONDS_PER_DAY,
                estimate=afr_estimate(counts[index], years),
            )
        )
    if not buckets:
        raise AnalysisError("no disk exposure in any age bucket")
    return buckets


def infant_elevation(buckets: List[AgeBucket]) -> float:
    """First bucket's AFR relative to the rest (1.0 = no infant effect)."""
    if len(buckets) < 2:
        raise AnalysisError("need at least 2 buckets")
    first = buckets[0].estimate
    rest_count = sum(bucket.estimate.count for bucket in buckets[1:])
    rest_exposure = sum(bucket.estimate.exposure_years for bucket in buckets[1:])
    if rest_exposure <= 0.0 or rest_count == 0:
        raise AnalysisError("no mature-disk exposure to compare against")
    rest_rate = 100.0 * rest_count / rest_exposure
    return first.percent / rest_rate


def format_age_table(buckets: List[AgeBucket]) -> str:
    """Render the age profile as a monospace table."""
    from repro.core.report import format_table

    headers = ["Disk age", "Failures", "Disk-years", "AFR"]
    rows = [
        [
            bucket.label,
            str(bucket.estimate.count),
            "%.0f" % bucket.estimate.exposure_years,
            "%.2f%%" % bucket.estimate.percent,
        ]
        for bucket in buckets
    ]
    return format_table(headers, rows)
