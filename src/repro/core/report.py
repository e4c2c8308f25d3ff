"""Plain-text rendering of analysis results (tables the paper prints).

Everything here returns strings; the CLI, benches, and examples print
them.  No plotting dependency: the "figures" are rendered as the data
series behind them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

from repro.core.breakdown import BreakdownRow
from repro.core.correlation import CorrelationResult
from repro.core.dataset import FailureDataset
from repro.core.findings import Finding
from repro.core.timebetween import GapAnalysis
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a monospace table with padded columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_breakdown(title: str, rows: List[BreakdownRow]) -> str:
    """A Figs. 4-7 style stacked-bar table: one row per bar.

    The paper's four types are fixed columns; an extended type (operator
    error) gets a column only when some row's stack includes it, so
    default-backend tables keep their committed shape.
    """
    types = list(FAILURE_TYPE_ORDER) + [
        ft
        for ft in EXTENDED_FAILURE_TYPES
        if any(ft in row.stack for row in rows)
    ]
    headers = ["Group", "Systems"] + [ft.label for ft in types] + [
        "Total AFR",
    ]
    body = []
    for row in rows:
        body.append(
            [row.label, str(row.systems)]
            + ["%.2f%%" % row.percent(ft) for ft in types]
            + ["%.2f%%" % row.total_percent]
        )
    return "%s\n%s" % (title, format_table(headers, body))


@dataclasses.dataclass(frozen=True)
class ClassOverview:
    """One Table 1 row: a system class's population and its events.

    Attributes:
        system_class: the class.
        systems / shelves / disks_ever / raid_groups: population counts
            (disks ever installed, the Table 1 convention).
        dual_path_systems: systems configured with dual paths.
        failure_events: event counts per type, every type in storage
            order.
    """

    system_class: SystemClass
    systems: int
    shelves: int
    disks_ever: int
    raid_groups: int
    dual_path_systems: int
    failure_events: Dict[FailureType, int]


def class_overview(dataset: FailureDataset) -> List[ClassOverview]:
    """Table 1's rows: one per class present in the fleet, in class order."""
    fleet = dataset.fleet
    shelves = np.diff(fleet.system_shelf_start)
    groups = np.diff(fleet.system_group_start)
    disks = np.diff(fleet.slot_disk_start[fleet.shelf_slot_start[fleet.system_shelf_start]])
    rows: List[ClassOverview] = []
    for system_class in SYSTEM_CLASS_ORDER:
        systems = fleet.where(system_class=system_class)
        if not systems.any():
            continue
        counts = np.bincount(
            dataset.table.type_codes[dataset.event_mask(systems)].astype(np.int64),
            minlength=len(ALL_FAILURE_TYPES),
        )
        rows.append(
            ClassOverview(
                system_class=system_class,
                systems=int(np.count_nonzero(systems)),
                shelves=int(shelves[systems].sum()),
                disks_ever=int(disks[systems].sum()),
                raid_groups=int(groups[systems].sum()),
                dual_path_systems=int(np.count_nonzero(fleet.dual_path[systems])),
                failure_events=dict(zip(ALL_FAILURE_TYPES, counts.tolist())),
            )
        )
    return rows


def format_overview(rows: List[ClassOverview]) -> str:
    """A Table 1 style overview of the fleet, from :func:`class_overview`."""
    # Extended-type columns appear only when their events exist at all.
    extended = [
        ft for ft in EXTENDED_FAILURE_TYPES if any(row.failure_events[ft] for row in rows)
    ]
    types = list(FAILURE_TYPE_ORDER) + extended
    headers = [
        "System Class",
        "# Systems",
        "# Shelves",
        "# Disks",
        "# RAID Groups",
        "Disk Fail",
        "Phys Inter.",
        "Protocol",
        "Performance",
    ] + [ft.label for ft in extended]
    body = [
        [
            row.system_class.label,
            str(row.systems),
            str(row.shelves),
            str(row.disks_ever),
            str(row.raid_groups),
        ]
        + [str(row.failure_events[ft]) for ft in types]
        for row in rows
    ]
    return "Overview of simulated storage systems (Table 1)\n%s" % format_table(
        headers, body
    )


def format_gap_analyses(title: str, analyses: Dict[str, GapAnalysis]) -> str:
    """A Fig. 9 panel as a table: burstiness and fits per series."""
    headers = ["Series", "Gaps", "P(gap<10^4 s)", "Median gap (s)", "Best fit"]
    body = []
    for label, analysis in analyses.items():
        best = analysis.best_fit
        fit_label = "-"
        if best is not None:
            fit_label = "%s (loglik=%.0f)" % (best.name, best.log_likelihood)
        body.append(
            [
                label,
                str(analysis.ecdf.n),
                "%.1f%%" % (100.0 * analysis.burst_fraction),
                "%.0f" % analysis.ecdf.quantile(0.5),
                fit_label,
            ]
        )
    return "%s\n%s" % (title, format_table(headers, body))


def format_correlation(title: str, results: List[CorrelationResult]) -> str:
    """A Fig. 10 panel as a table: empirical vs theoretical P(2)."""
    headers = [
        "Failure type",
        "Units",
        "P(1)",
        "P(2) empirical",
        "P(2) theoretical",
        "Inflation",
        "p-value",
    ]
    body = []
    for result in results:
        body.append(
            [
                result.failure_type.label,
                str(result.n_units),
                "%.3f%%" % (100.0 * result.p1),
                "%.3f%%" % (100.0 * result.p2_empirical),
                "%.4f%%" % (100.0 * result.p2_theoretical),
                "%.1fx" % result.inflation,
                "%.2g" % result.test.p_value,
            ]
        )
    return "%s\n%s" % (title, format_table(headers, body))


def format_findings(findings: List[Finding]) -> str:
    """The findings scoreboard."""
    lines = ["Findings scoreboard"]
    for finding in findings:
        flag = "PASS" if finding.passed else "FAIL"
        lines.append("  [%s] Finding %2d: %s" % (flag, finding.number, finding.statement))
        detail = ", ".join(
            "%s=%.3g" % (key, value) for key, value in sorted(finding.details.items())
        )
        lines.append("         %s" % detail)
    return "\n".join(lines)
