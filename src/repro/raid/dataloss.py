"""Data-loss estimation: replay failure streams against RAID groups.

This quantifies the paper's central implication: RAID's classic
reliability analysis (Patterson et al.'s MTTDL) assumes independent
failures, but the observed processes are correlated and bursty — so the
chance that a second (or third) failure lands inside a rebuild window
is far higher than the independence model predicts.  The estimator
walks every RAID group's failure timeline, opens an unavailability
window per event, and counts the moments when concurrent
unavailability exceeds the group's parity.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.fleet import catalog
from repro.fleet.fleet import RAID_TYPES, sequential_sum
from repro.raid.rebuild import RebuildModel
from repro.topology.raidgroup import RaidType
from repro.units import SECONDS_PER_HOUR, seconds_to_years

#: How long a non-disk failure leaves members unavailable: transient
#: outages (missing disks during an interconnect fault, frozen I/O
#: during a protocol incident) until remediation.
DEFAULT_TRANSIENT_OUTAGE_SECONDS = 2.0 * SECONDS_PER_HOUR


@dataclasses.dataclass(frozen=True)
class GroupLoss:
    """Loss summary for one RAID group."""

    raid_group_id: str
    raid_type: RaidType
    events: int
    max_concurrent: int
    loss_incidents: int


@dataclasses.dataclass
class DataLossReport:
    """Fleet-wide data-loss estimate.

    Attributes:
        groups: per-group summaries (only groups that saw events).
        group_years: total group-years of exposure across the fleet.
        loss_incidents_by_type: loss counts per RAID level.
        groups_by_type: group counts per RAID level.
    """

    groups: List[GroupLoss]
    group_years: float
    loss_incidents_by_type: Dict[RaidType, int]
    groups_by_type: Dict[RaidType, int]

    @property
    def total_loss_incidents(self) -> int:
        """All data-loss incidents across RAID levels."""
        return sum(self.loss_incidents_by_type.values())

    def loss_rate_per_1000_group_years(self) -> float:
        """Normalized loss rate for cross-scenario comparison."""
        if self.group_years <= 0.0:
            return 0.0
        return 1000.0 * self.total_loss_incidents / self.group_years


def estimate_dataloss(
    dataset: FailureDataset,
    rebuild: Optional[RebuildModel] = None,
    include_transient: bool = True,
    transient_outage_seconds: float = DEFAULT_TRANSIENT_OUTAGE_SECONDS,
) -> DataLossReport:
    """Estimate data-loss incidents over a simulated failure history.

    Args:
        dataset: events + fleet.
        rebuild: rebuild window model (default :class:`RebuildModel`).
        include_transient: whether non-disk subsystem failures open
            (shorter) unavailability windows too; with False, only disk
            failures count — the classic RAID analysis.
        transient_outage_seconds: outage length for non-disk failures.

    Returns:
        A :class:`DataLossReport`; a *loss incident* is a moment when a
        group's concurrently unavailable members exceed its parity count.
    """
    if rebuild is None:
        rebuild = RebuildModel()
    if transient_outage_seconds <= 0.0:
        raise AnalysisError("transient outage must be positive")

    with obs.span(
        "raid.estimate_dataloss", include_transient=include_transient
    ):
        return _estimate(
            dataset, rebuild, include_transient, transient_outage_seconds
        )


def _estimate(
    dataset: FailureDataset,
    rebuild: RebuildModel,
    include_transient: bool,
    transient_outage_seconds: float,
) -> DataLossReport:
    fleet = dataset.fleet
    type_codes = fleet.group_raid_type
    groups_by_type: Dict[RaidType, int] = {
        RAID_TYPES[code]: int(np.count_nonzero(type_codes == code))
        for code in _first_appearance(type_codes).tolist()
    }

    # Gather per-group unavailability intervals.  A member is
    # unavailable from the failure's *occurrence*; repair (rebuild or
    # remediation) only starts once the hourly scrub *detects* it —
    # which is why slower detection widens the overlap window and
    # raises loss risk.
    table = dataset.deduplicated().table
    group = fleet.group_rows(table.raid_group_ids.values)[table.raid_group_codes]
    disk = table.type_mask(FailureType.DISK)
    window = np.full(len(table), transient_outage_seconds)
    kept = (group >= 0) & (disk | include_transient)
    for code in _first_appearance(table.disk_model_codes[kept & disk]).tolist():
        capacity = catalog.disk_model(table.disk_models.value(code)).capacity_gb
        window[disk & (table.disk_model_codes == code)] = rebuild.window_seconds(
            float(capacity)
        )

    # Groups in order of their first event, as a dict fills.
    units = _first_appearance(group[kept])
    rank = np.empty(fleet.raid_group_count, dtype=np.int64)
    rank[units] = np.arange(units.size)
    unit = rank[group[kept]]
    unit_types = type_codes[units]

    # Sweep line over start/end boundaries, every group at once: sorted
    # by group, time, then -1 before +1, as a sort of (time, delta)
    # pairs orders them.  A group's deltas sum to zero, so one running
    # sum is each group's own, restarting at zero at its first boundary.
    bound = np.concatenate((unit, unit))
    delta = np.repeat(np.array([1, -1]), unit.size)
    times = np.concatenate(
        (table.occur_time[kept], table.detect_time[kept] + window[kept])
    )
    order = np.lexsort((delta, times, bound))
    bound = bound[order]
    concurrent = np.cumsum(delta[order])
    before = np.concatenate(([0], concurrent[:-1]))
    tolerated = np.array([raid_type.tolerated_failures for raid_type in RAID_TYPES])
    limit = tolerated[unit_types[bound]]
    # A loss is a step from at most the tolerated count to above it.
    losses = np.bincount(
        bound[(concurrent > limit) & (before <= limit)], minlength=units.size
    )
    peak = np.zeros(units.size, dtype=np.int64)
    np.maximum.at(peak, bound, concurrent)

    group_summaries: List[GroupLoss] = [
        GroupLoss(
            raid_group_id=group_id,
            raid_type=RAID_TYPES[code],
            events=count,
            max_concurrent=most,
            loss_incidents=lost,
        )
        for group_id, code, count, most, lost in zip(
            fleet.group_ids_of(units),
            unit_types.tolist(),
            np.bincount(unit, minlength=units.size).tolist(),
            peak.tolist(),
            losses.tolist(),
        )
    ]
    loss_by_type: Dict[RaidType, int] = {
        raid_type: int(losses[unit_types == code].sum())
        for code, raid_type in enumerate(RAID_TYPES)
    }

    # Group-years: each group is exposed from its system's deployment,
    # summed system by system in fleet order.
    in_field = np.maximum(0.0, dataset.duration_seconds - fleet.deploy_time)
    group_years = sequential_sum(
        np.diff(fleet.system_group_start) * seconds_to_years(in_field)
    )

    return DataLossReport(
        groups=sorted(group_summaries, key=lambda g: -g.loss_incidents),
        group_years=group_years,
        loss_incidents_by_type=loss_by_type,
        groups_by_type=groups_by_type,
    )


def _first_appearance(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` in order of first appearance."""
    values, first = np.unique(codes, return_index=True)
    return values[np.argsort(first)]
