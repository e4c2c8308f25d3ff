"""Grouped AFR breakdowns: the machinery behind Figs. 4, 5, 6, and 7.

Each public function returns :class:`BreakdownRow` records — one stacked
bar each — so benchmarks and reports can print exactly the series the
paper plots.  Every bar is a system mask over the whole fleet
(:meth:`~repro.fleet.fleet.Fleet.where`), a panel's mask ANDed with the
bar's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.afr import AFREstimate, afr_stack, stack_total_percent
from repro.core.dataset import FailureDataset
from repro.failures.types import FailureType
from repro.fleet.calibration import PROBLEMATIC_DISK_FAMILY
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass


@dataclasses.dataclass(frozen=True)
class BreakdownRow:
    """One stacked bar: a labeled group with per-type AFRs.

    Attributes:
        label: the bar's x-axis label (class, disk model, ...).
        stack: per-failure-type AFR estimates.
        systems: number of systems contributing.
    """

    label: str
    stack: Dict[FailureType, AFREstimate]
    systems: int

    @property
    def total_percent(self) -> float:
        """The bar height: total subsystem AFR percent."""
        return stack_total_percent(self.stack)

    def percent(self, failure_type: FailureType) -> float:
        """One segment's AFR percent (0 for types absent from the stack,
        e.g. extended types in a default-backend run)."""
        estimate = self.stack.get(failure_type)
        return 0.0 if estimate is None else estimate.percent

    def share(self, failure_type: FailureType) -> float:
        """One segment's share of the bar (0-1); 0 for an empty bar."""
        total = self.total_percent
        return 0.0 if total == 0.0 else self.percent(failure_type) / total


def afr_by_class(
    dataset: FailureDataset,
    exclude_problematic_family: bool = False,
    confidence: float = 0.995,
) -> List[BreakdownRow]:
    """Fig. 4: AFR per system class, broken down by failure type.

    Args:
        exclude_problematic_family: Fig. 4(b)'s treatment — drop systems
            using the Disk H family before computing rates.
    """
    fleet = dataset.fleet
    kept = fleet.where()
    if exclude_problematic_family:
        # A mask, not a filtered copy of the fleet: the same rows in
        # the same order, so the same sums.
        kept = ~fleet.where(disk_family=PROBLEMATIC_DISK_FAMILY)
    return _stacked_rows(
        dataset,
        (
            (system_class.label, kept & fleet.where(system_class=system_class))
            for system_class in SYSTEM_CLASS_ORDER
        ),
        confidence,
    )


def afr_by_disk_model(
    dataset: FailureDataset,
    system_class: SystemClass,
    shelf_model: str,
    confidence: float = 0.995,
) -> List[BreakdownRow]:
    """Fig. 5: AFR per disk model within one class + shelf-model panel."""
    fleet = dataset.fleet
    panel = fleet.where(system_class=system_class, shelf_model=shelf_model)
    return _stacked_rows(
        dataset,
        (
            ("Disk %s" % model, panel & fleet.where(disk_model=model))
            for model in _values_of(fleet.disk_models, panel)
        ),
        confidence,
    )


def afr_by_shelf_model(
    dataset: FailureDataset,
    system_class: SystemClass,
    disk_model: str,
    confidence: float = 0.995,
) -> List[BreakdownRow]:
    """Fig. 6: AFR per shelf enclosure model, disk model held fixed."""
    fleet = dataset.fleet
    panel = fleet.where(system_class=system_class, disk_model=disk_model)
    return _stacked_rows(
        dataset,
        (
            (
                "Shelf Enclosure Model %s" % shelf_model,
                panel & fleet.where(shelf_model=shelf_model),
            )
            for shelf_model in _values_of(fleet.shelf_models, panel)
        ),
        confidence,
    )


def afr_by_path_config(
    dataset: FailureDataset,
    system_class: SystemClass,
    confidence: float = 0.999,
) -> List[BreakdownRow]:
    """Fig. 7: AFR for single-path vs dual-path systems of one class.

    The paper quotes the physical-interconnect error bars at 99.9%
    confidence, hence the different default.
    """
    fleet = dataset.fleet
    panel = fleet.where(system_class=system_class)
    return _stacked_rows(
        dataset,
        (
            (label, panel & fleet.where(dual_path=dual_path))
            for dual_path, label in ((False, "Single Path"), (True, "Dual Paths"))
        ),
        confidence,
    )


def _values_of(values: Sequence[str], systems: np.ndarray) -> List[str]:
    """The distinct ``values`` of the systems ``systems`` picks, sorted."""
    return sorted({value for value, inside in zip(values, systems.tolist()) if inside})


def _stacked_rows(
    dataset: FailureDataset,
    groups: Iterable[Tuple[str, np.ndarray]],
    confidence: float,
) -> List[BreakdownRow]:
    """One bar per ``(label, system mask)`` group that holds systems."""
    rows: List[BreakdownRow] = []
    for label, systems in groups:
        count = int(np.count_nonzero(systems))
        if count:
            rows.append(
                BreakdownRow(
                    label=label,
                    stack=afr_stack(dataset, systems, confidence),
                    systems=count,
                )
            )
    return rows


def row_by_label(rows: List[BreakdownRow], label: str) -> Optional[BreakdownRow]:
    """Find a row by its label (None when absent)."""
    for row in rows:
        if row.label == label:
            return row
    return None


def disk_failure_share_range(rows: List[BreakdownRow]) -> Dict[str, float]:
    """Min/max share of disk failures across rows (Finding 1's 20-55%)."""
    shares = [row.share(FailureType.DISK) for row in rows if row.total_percent > 0]
    if not shares:
        return {"min": 0.0, "max": 0.0}
    return {"min": min(shares), "max": max(shares)}
