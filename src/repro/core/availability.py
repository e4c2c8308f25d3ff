"""Availability estimation: from failure streams to SLA nines.

The paper's opening motivation (§1.1): accurate failure-rate estimates
let designers size redundancy "to meet certain service-level agreement
(SLA) metrics (e.g., data availability)."  This module closes that loop
for the simulated fleet: each subsystem failure opens an outage window
whose duration depends on the failure type (a disk rebuild, a cable
swap, a driver fix, a transient slowdown), and availability is
in-service time minus outage time.

Overlapping outages on one system are merged, so a bursty shelf incident
is counted as one long outage rather than many stacked ones — which is
exactly why bursty failures hurt availability less than independent
ones of the same count, while hurting *data loss* more.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Mapping, Tuple

import numpy as np

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import ALL_FAILURE_TYPES, FailureType
from repro.fleet.fleet import sequential_sum
from repro.topology.classes import SYSTEM_CLASS_ORDER
from repro.units import SECONDS_PER_HOUR

#: Default repair/outage durations per failure type (seconds).  Disk
#: failures are RAID-masked but degrade the group until rebuilt;
#: interconnect failures need hands on cables/shelves; protocol failures
#: need driver remediation; performance failures pass transiently.
DEFAULT_OUTAGE_SECONDS: Mapping[FailureType, float] = {
    FailureType.DISK: 6.0 * SECONDS_PER_HOUR,
    FailureType.PHYSICAL_INTERCONNECT: 4.0 * SECONDS_PER_HOUR,
    FailureType.PROTOCOL: 2.0 * SECONDS_PER_HOUR,
    FailureType.PERFORMANCE: 0.5 * SECONDS_PER_HOUR,
    # Extended type: undoing a mis-pulled drive / wrong-slot insert is a
    # hands-on fix comparable to an interconnect repair, minus travel.
    FailureType.OPERATOR_ERROR: 2.0 * SECONDS_PER_HOUR,
}


@dataclasses.dataclass(frozen=True)
class AvailabilityReport:
    """Availability summary for a group of systems.

    Attributes:
        label: what was summarized (e.g. a system class).
        systems: systems in the group.
        in_service_seconds: summed system in-field time.
        outage_seconds: summed (merged) outage time.
    """

    label: str
    systems: int
    in_service_seconds: float
    outage_seconds: float

    @property
    def availability(self) -> float:
        """Fraction of in-service time without an open outage."""
        if self.in_service_seconds <= 0.0:
            return 1.0
        return 1.0 - self.outage_seconds / self.in_service_seconds

    @property
    def nines(self) -> float:
        """The availability expressed as 'number of nines'."""
        import math

        unavailability = 1.0 - self.availability
        if unavailability <= 0.0:
            return float("inf")
        return -math.log10(unavailability)

    @property
    def downtime_hours_per_system_year(self) -> float:
        """Average downtime per system-year, in hours."""
        if self.in_service_seconds <= 0.0:
            return 0.0
        from repro.units import SECONDS_PER_YEAR

        years = self.in_service_seconds / SECONDS_PER_YEAR
        return self.outage_seconds / SECONDS_PER_HOUR / years


def _merge_intervals(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


def availability_by_class(
    dataset: FailureDataset,
    outage_seconds: Mapping[FailureType, float] = DEFAULT_OUTAGE_SECONDS,
) -> List[AvailabilityReport]:
    """Availability per system class.

    Args:
        dataset: events + fleet.
        outage_seconds: per-type outage durations.

    Returns:
        One report per class present in the fleet, in class order.
    """
    fleet = dataset.fleet
    return availability_of(
        dataset,
        (
            (system_class.label, fleet.where(system_class=system_class))
            for system_class in SYSTEM_CLASS_ORDER
        ),
        outage_seconds,
    )


def availability_of(
    dataset: FailureDataset,
    groups: Iterable[Tuple[str, np.ndarray]],
    outage_seconds: Mapping[FailureType, float] = DEFAULT_OUTAGE_SECONDS,
) -> List[AvailabilityReport]:
    """One report per ``(label, system mask)`` group that holds systems.

    Masks are over the fleet's rows (``Fleet.where``); each group sums
    its systems' in-service and merged outage time in fleet order.
    """
    for failure_type in FailureType:
        if outage_seconds.get(failure_type, 0.0) < 0.0:
            raise AnalysisError("outage durations must be non-negative")

    deduplicated = dataset.deduplicated()
    per_code = _merged_outage_by_system(
        deduplicated.table, outage_seconds, dataset.duration_seconds
    )
    rows = deduplicated.table_system_rows
    held = rows >= 0
    outage = np.zeros(dataset.fleet.system_count, dtype=np.float64)
    outage[rows[held]] = per_code[held]
    in_service = np.maximum(0.0, dataset.duration_seconds - dataset.fleet.deploy_time)

    reports: List[AvailabilityReport] = []
    for label, systems in groups:
        count = int(np.count_nonzero(systems))
        if count:
            reports.append(
                AvailabilityReport(
                    label=label,
                    systems=count,
                    in_service_seconds=sequential_sum(in_service[systems]),
                    outage_seconds=sequential_sum(outage[systems]),
                )
            )
    return reports


def _merged_outage_by_system(table, outage_seconds, duration_seconds):
    """Per-system union-of-outage-windows length, vectorized.

    Returns an array indexed by the table's system code.  The interval
    union is computed in one pass over all systems: each system's
    windows are shifted onto a disjoint stretch of the number line
    (offsets exceed any in-window time), after which
    merged runs never span systems and a single running-max scan finds
    every run — exactly the merge :func:`_merge_intervals` performs per
    system, touching-window semantics included.
    """
    durations = np.array(
        [outage_seconds.get(t, 0.0) for t in ALL_FAILURE_TYPES],
        dtype=np.float64,
    )
    n_systems = len(table.system_ids)
    per_sys = np.zeros(n_systems, dtype=np.float64)
    row_durations = durations[table.type_codes]
    rows = np.flatnonzero(row_durations > 0.0)
    if rows.size == 0:
        return per_sys
    start = table.detect_time[rows]
    end = np.minimum(start + row_durations[rows], duration_seconds)
    sys_codes = table.system_codes[rows].astype(np.int64)

    order = np.lexsort((start, sys_codes))
    s = start[order]
    e = end[order]
    g = sys_codes[order]
    # A new merged run begins wherever a window opens strictly after
    # every earlier window of the same system closed (touching windows
    # merge, as in the scalar walk).  Shifting each system onto its own
    # stretch of the number line lets one global running max detect run
    # boundaries without leaking a system's close into the next.
    shift = max(duration_seconds, float(e.max())) + 1.0
    run_end = np.maximum.accumulate(e + g * shift)
    is_run_start = np.ones(s.size, dtype=bool)
    is_run_start[1:] = (s[1:] + g[1:] * shift) > run_end[:-1]
    # Run lengths come from the *unshifted* times — a segmented max over
    # each run's ends — so large system offsets cost no float precision.
    run_starts = np.flatnonzero(is_run_start)
    run_close = np.maximum.reduceat(e, run_starts)
    np.add.at(per_sys, g[run_starts], run_close - s[run_starts])
    return per_sys


def format_availability(reports: List[AvailabilityReport]) -> str:
    """Render availability reports as a monospace table."""
    from repro.core.report import format_table

    headers = ["Class", "Systems", "Availability", "Nines", "Downtime h/sys-yr"]
    rows = []
    for report in reports:
        nines = report.nines
        rows.append(
            [
                report.label,
                str(report.systems),
                "%.5f%%" % (100.0 * report.availability),
                "inf" if nines == float("inf") else "%.2f" % nines,
                "%.2f" % report.downtime_hours_per_system_year,
            ]
        )
    return format_table(headers, rows)
