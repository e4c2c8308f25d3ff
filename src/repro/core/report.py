"""Plain-text rendering of analysis results (tables the paper prints).

Everything here returns strings; the CLI, benches, and examples print
them.  No plotting dependency: the "figures" are rendered as the data
series behind them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.breakdown import BreakdownRow
from repro.core.correlation import CorrelationResult
from repro.core.dataset import FailureDataset
from repro.core.findings import Finding
from repro.core.timebetween import GapAnalysis
from repro.failures.types import (
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
)
from repro.topology.classes import SYSTEM_CLASS_ORDER


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


def format_overview(dataset: FailureDataset) -> str:
    """A Table 1 style overview of the studied (simulated) fleet."""
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
    ]
    body = []
    per_class_counts = []
    for system_class in SYSTEM_CLASS_ORDER:
        systems = dataset.fleet.systems_of_class(system_class)
        if not systems:
            continue
        ids = {s.system_id for s in systems}
        counts: Dict = {ft: 0 for ft in FAILURE_TYPE_ORDER}
        for event in dataset.events:
            if event.system_id in ids:
                counts[event.failure_type] = counts.get(event.failure_type, 0) + 1
        per_class_counts.append(counts)
        body.append(
            [
                system_class.label,
                str(len(systems)),
                str(sum(s.shelf_count for s in systems)),
                str(sum(s.disk_count_ever for s in systems)),
                str(sum(s.raid_group_count for s in systems)),
            ]
            + [str(counts[ft]) for ft in FAILURE_TYPE_ORDER]
        )
    # Extended-type columns appear only when their events exist at all.
    for ft in EXTENDED_FAILURE_TYPES:
        if any(counts.get(ft, 0) for counts in per_class_counts):
            headers = headers + [ft.label]
            for row, counts in zip(body, per_class_counts):
                row.append(str(counts.get(ft, 0)))
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
