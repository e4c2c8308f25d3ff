"""Annualized failure rate estimation.

AFR is the paper's workhorse metric: failures per disk-year, in percent.
The same denominator (disk-years of exposure) is used for every failure
type, so per-type AFRs stack to the subsystem AFR — the stacked bars of
Figs. 4-7.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from repro import obs
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.stats.intervals import ConfidenceInterval, rate_confidence_interval
from repro.topology.system import StorageSystem


@dataclasses.dataclass(frozen=True)
class AFREstimate:
    """An annualized failure rate with its provenance.

    Attributes:
        count: failure events in the group.
        exposure_years: disk-years of in-service exposure.
        percent: the AFR point estimate, percent per disk-year.
        interval: Poisson confidence interval on the AFR.
    """

    count: int
    exposure_years: float
    percent: float
    interval: ConfidenceInterval

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%.2f%% (%d events / %.0f disk-years)" % (
            self.percent,
            self.count,
            self.exposure_years,
        )


def afr_estimate(
    count: int, exposure_years: float, confidence: float = 0.995
) -> AFREstimate:
    """Build an :class:`AFREstimate` from a count and an exposure."""
    if exposure_years <= 0.0:
        raise AnalysisError("exposure must be positive to estimate an AFR")
    interval = rate_confidence_interval(count, exposure_years, confidence)
    return AFREstimate(
        count=count,
        exposure_years=exposure_years,
        percent=100.0 * count / exposure_years,
        interval=interval,
    )


def dataset_afr(
    dataset: FailureDataset,
    failure_type: Optional[FailureType] = None,
    system_predicate: Optional[Callable[[StorageSystem], bool]] = None,
    confidence: float = 0.995,
) -> AFREstimate:
    """AFR over (a subset of) a dataset.

    Args:
        dataset: events + fleet.
        failure_type: restrict the numerator to one type (None = all).
        system_predicate: restrict numerator and denominator to systems
            satisfying the predicate.
        confidence: CI level for the returned interval.
    """
    exposure = dataset.exposure_years(system_predicate)
    if system_predicate is None:
        kept_ids = None
    else:
        kept_ids = {
            s.system_id for s in dataset.fleet.systems if system_predicate(s)
        }
    count = _columnar_count(dataset, failure_type, kept_ids)
    return afr_estimate(count, exposure, confidence)


def _columnar_count(
    dataset: FailureDataset,
    failure_type: Optional[FailureType],
    kept_ids: Optional[set],
) -> int:
    table = dataset.table
    mask: Optional[np.ndarray] = None
    if failure_type is not None:
        mask = table.type_mask(failure_type)
    if kept_ids is not None:
        member = table.system_member_mask(kept_ids)
        mask = member if mask is None else mask & member
    if mask is None:
        return len(table)
    return int(np.count_nonzero(mask))


def afr_stack(
    dataset: FailureDataset,
    system_predicate: Optional[Callable[[StorageSystem], bool]] = None,
    confidence: float = 0.995,
) -> Dict[FailureType, AFREstimate]:
    """Per-type AFRs over one group — one stacked bar of Figs. 4-7."""
    # One bincount counts every type; the exposure denominator is
    # shared across the whole stack.
    with obs.span("core.afr.stack", events=len(dataset)):
        exposure = dataset.exposure_years(system_predicate)
        table = dataset.table
        if system_predicate is None:
            counts = table.counts_by_type()
        else:
            kept_ids = {
                s.system_id for s in dataset.fleet.systems if system_predicate(s)
            }
            member = table.system_member_mask(kept_ids)
            counts = np.bincount(
                table.type_codes[member].astype(np.int64),
                minlength=len(ALL_FAILURE_TYPES),
            )
        # The paper's four types are always in the stack; extended
        # types (operator error) appear only when events exist, so
        # default-backend output keeps the four-bar shape.
        stack = {
            failure_type: afr_estimate(int(counts[code]), exposure, confidence)
            for code, failure_type in enumerate(FAILURE_TYPE_ORDER)
        }
        for failure_type in EXTENDED_FAILURE_TYPES:
            count = int(counts[ALL_FAILURE_TYPES.index(failure_type)])
            if count:
                stack[failure_type] = afr_estimate(count, exposure, confidence)
        return stack


def stack_total_percent(stack: Dict[FailureType, AFREstimate]) -> float:
    """Total subsystem AFR of a stacked bar (the bar's height)."""
    return sum(estimate.percent for estimate in stack.values())
