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
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.fleet import catalog
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
    group_types: Dict[str, RaidType] = {}
    groups_by_type: Dict[RaidType, int] = {}
    for group in dataset.fleet.iter_raid_groups():
        group_types[group.raid_group_id] = group.raid_type
        groups_by_type[group.raid_type] = groups_by_type.get(group.raid_type, 0) + 1

    # Gather per-group unavailability intervals.  A member is
    # unavailable from the failure's *occurrence*; repair (rebuild or
    # remediation) only starts once the hourly scrub *detects* it —
    # which is why slower detection widens the overlap window and
    # raises loss risk.
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for event in dataset.deduplicated().events:
        if event.raid_group_id not in group_types:
            continue
        if event.failure_type is FailureType.DISK:
            capacity = catalog.disk_model(event.disk_model).capacity_gb
            window = rebuild.window_seconds(float(capacity))
        elif include_transient:
            window = transient_outage_seconds
        else:
            continue
        intervals.setdefault(event.raid_group_id, []).append(
            (event.occur_time, event.detect_time + window)
        )

    group_summaries: List[GroupLoss] = []
    loss_by_type: Dict[RaidType, int] = {raid_type: 0 for raid_type in RaidType}
    for group_id, spans in intervals.items():
        raid_type = group_types[group_id]
        tolerated = raid_type.tolerated_failures
        # Sweep line over start/end boundaries.
        boundaries: List[Tuple[float, int]] = []
        for start, end in spans:
            boundaries.append((start, +1))
            boundaries.append((end, -1))
        boundaries.sort()
        concurrent = 0
        max_concurrent = 0
        losses = 0
        above = False
        for _, delta in boundaries:
            concurrent += delta
            max_concurrent = max(max_concurrent, concurrent)
            if concurrent > tolerated and not above:
                losses += 1
                above = True
            elif concurrent <= tolerated:
                above = False
        loss_by_type[raid_type] += losses
        group_summaries.append(
            GroupLoss(
                raid_group_id=group_id,
                raid_type=raid_type,
                events=len(spans),
                max_concurrent=max_concurrent,
                loss_incidents=losses,
            )
        )

    # Group-years: each group is exposed from its system's deployment.
    group_years = 0.0
    for system in dataset.fleet.systems:
        in_field = max(0.0, dataset.duration_seconds - system.deploy_time)
        group_years += system.raid_group_count * seconds_to_years(in_field)

    return DataLossReport(
        groups=sorted(group_summaries, key=lambda g: -g.loss_incidents),
        group_years=group_years,
        loss_incidents_by_type=loss_by_type,
        groups_by_type=groups_by_type,
    )
