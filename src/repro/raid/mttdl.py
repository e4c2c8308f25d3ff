"""Analytic MTTDL models under the classic independence assumption.

Patterson, Gibson & Katz's original RAID analysis (the paper's [13]) —
and Schulze et al.'s follow-up ([17]) — estimate mean time to data loss
assuming disks fail **independently** at a constant rate and rebuild in
a fixed window:

- single parity (RAID4/5): ``MTTDL = MTTF^2 / (N (N-1) MTTR)``
- double parity (RAID6/RAID-DP):
  ``MTTDL = MTTF^3 / (N (N-1) (N-2) MTTR^2)``

The whole point of the paper's §5 is that this assumption is wrong in
the field: failures are bursty and correlated, so real loss rates are
far above these formulas' predictions.  This module provides the
analytic side of that comparison; :mod:`repro.raid.dataloss` provides
the replayed-history side.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import RaidError
from repro.fleet.fleet import RAID_TYPES, sequential_sum
from repro.topology.raidgroup import RaidType
from repro.units import SECONDS_PER_YEAR, afr_percent_to_rate_per_second


@dataclasses.dataclass(frozen=True)
class MttdlModel:
    """Analytic MTTDL for one RAID group shape.

    Attributes:
        group_size: member disks (data + parity).
        raid_type: RAID4 (single parity) or RAID6 (double parity).
        disk_afr_percent: per-disk annualized failure rate.
        rebuild_seconds: repair window per failed disk.
    """

    group_size: int
    raid_type: RaidType
    disk_afr_percent: float
    rebuild_seconds: float

    def __post_init__(self) -> None:
        if self.group_size <= self.raid_type.parity_disks:
            raise RaidError("group too small for its parity count")
        if self.disk_afr_percent <= 0.0:
            raise RaidError("disk AFR must be positive")
        if self.rebuild_seconds <= 0.0:
            raise RaidError("rebuild window must be positive")

    @property
    def disk_mttf_seconds(self) -> float:
        """Per-disk mean time to failure implied by the AFR."""
        return 1.0 / afr_percent_to_rate_per_second(self.disk_afr_percent)

    def mttdl_seconds(self) -> float:
        """Mean time to data loss under independent failures.

        The Markov birth chain solution: a loss needs ``parity + 1``
        overlapping failures; each additional concurrent failure must
        arrive within the rebuild window of the previous one.
        """
        n = self.group_size
        mttf = self.disk_mttf_seconds
        mttr = self.rebuild_seconds
        if self.raid_type is RaidType.RAID4:
            return mttf**2 / (n * (n - 1) * mttr)
        return mttf**3 / (n * (n - 1) * (n - 2) * mttr**2)

    def mttdl_years(self) -> float:
        """MTTDL in years."""
        return self.mttdl_seconds() / SECONDS_PER_YEAR

    def loss_rate_per_1000_group_years(self) -> float:
        """Predicted loss incidents per 1000 group-years.

        Directly comparable to
        :meth:`repro.raid.dataloss.DataLossReport.loss_rate_per_1000_group_years`.
        """
        return 1000.0 / self.mttdl_years()


def fleet_mttdl_prediction(
    dataset,
    rebuild_seconds: float,
    disk_afr_percent: float,
) -> float:
    """Exposure-weighted analytic loss rate for a whole fleet.

    Averages each RAID group's analytic loss rate (per 1000
    group-years), weighting groups equally — adequate because group
    lifetimes are similar within a fleet.

    Args:
        dataset: a :class:`~repro.core.dataset.FailureDataset` (for the
            group inventory).
        rebuild_seconds: repair window to assume.
        disk_afr_percent: per-disk AFR to assume (e.g. the fleet's
            measured disk-failure AFR).

    Returns:
        Predicted loss incidents per 1000 group-years.
    """
    fleet = dataset.fleet
    if not fleet.raid_group_count:
        raise RaidError("fleet has no RAID groups")
    grouped = fleet.slot_group[fleet.slot_group >= 0]
    sizes = np.bincount(grouped, minlength=fleet.raid_group_count)
    codes = fleet.group_raid_type.astype(np.int64)
    parity = np.array([raid_type.parity_disks for raid_type in RAID_TYPES])
    # Degenerate remainder groups barely lose data.
    counted = sizes > parity[codes] + 1
    if not counted.any():
        raise RaidError("no RAID group large enough for the MTTDL model")
    # One model per group shape; the rates are added in group order.
    shapes, shape_of = np.unique(
        sizes[counted] * len(RAID_TYPES) + codes[counted], return_inverse=True
    )
    rates = np.array(
        [
            MttdlModel(
                group_size=shape // len(RAID_TYPES),
                raid_type=RAID_TYPES[shape % len(RAID_TYPES)],
                disk_afr_percent=disk_afr_percent,
                rebuild_seconds=rebuild_seconds,
            ).loss_rate_per_1000_group_years()
            for shape in shapes.tolist()
        ]
    )
    return sequential_sum(rates[shape_of]) / int(counted.sum())
