"""Annualized failure rate estimation.

AFR is the paper's workhorse metric: failures per disk-year, in percent.
The same denominator (disk-years of exposure) is used for every failure
type, so per-type AFRs stack to the subsystem AFR — the stacked bars of
Figs. 4-7.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

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
    systems: Optional[np.ndarray] = None,
    confidence: float = 0.995,
) -> AFREstimate:
    """AFR over (a subset of) a dataset.

    Args:
        dataset: events + fleet.
        failure_type: restrict the numerator to one type (None = all).
        systems: a mask over the fleet's rows (``Fleet.where``);
            restricts numerator and denominator to those systems.
        confidence: CI level for the returned interval.
    """
    exposure = dataset.exposure_years(systems)
    table = dataset.table
    mask = None if systems is None else dataset.event_mask(systems)
    if failure_type is not None:
        of_type = table.type_mask(failure_type)
        mask = of_type if mask is None else mask & of_type
    count = len(table) if mask is None else int(np.count_nonzero(mask))
    return afr_estimate(count, exposure, confidence)


def afr_stack(
    dataset: FailureDataset,
    systems: Optional[np.ndarray] = None,
    confidence: float = 0.995,
) -> Dict[FailureType, AFREstimate]:
    """Per-type AFRs over one group — one stacked bar of Figs. 4-7.

    ``systems`` is a mask over the fleet's rows (None = every system).
    """
    # One bincount counts every type; the exposure denominator is
    # shared across the whole stack.
    with obs.span("core.afr.stack", events=len(dataset)):
        exposure = dataset.exposure_years(systems)
        codes = dataset.table.type_codes
        if systems is not None:
            codes = codes[dataset.event_mask(systems)]
        counts = np.bincount(codes.astype(np.int64), minlength=len(ALL_FAILURE_TYPES))
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
