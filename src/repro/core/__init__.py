"""The paper's analyses: AFR breakdowns, burstiness, correlation, findings.

- :mod:`repro.core.columns` — the columnar event core (structure-of-
  arrays :class:`EventTable` + interned string tables).
- :mod:`repro.core.dataset` — the failure dataset container (events +
  exposure accounting + filtering).
- :mod:`repro.core.afr` — annualized failure rate estimation.
- :mod:`repro.core.breakdown` — grouped AFR breakdowns (Figs. 4-7).
- :mod:`repro.core.timebetween` — time-between-failure analysis (Fig. 9).
- :mod:`repro.core.correlation` — failure self-correlation (Fig. 10).
- :mod:`repro.core.significance` — paper-style significance statements.
- :mod:`repro.core.findings` — automated checks of Findings 1-11.
- :mod:`repro.core.report` — plain-text rendering of analysis tables.
"""

from repro.core.columns import EventTable, StringTable
from repro.core.dataset import FailureDataset
from repro.core.afr import AFREstimate, afr_estimate
from repro.core.breakdown import (
    BreakdownRow,
    afr_by_class,
    afr_by_disk_model,
    afr_by_path_config,
    afr_by_shelf_model,
)
from repro.core.timebetween import GapAnalysis, gaps_by_scope, analyze_gaps
from repro.core.correlation import CorrelationResult, correlation_by_type
from repro.core.findings import Finding, evaluate_findings

__all__ = [
    "EventTable",
    "StringTable",
    "FailureDataset",
    "AFREstimate",
    "afr_estimate",
    "BreakdownRow",
    "afr_by_class",
    "afr_by_disk_model",
    "afr_by_path_config",
    "afr_by_shelf_model",
    "GapAnalysis",
    "gaps_by_scope",
    "analyze_gaps",
    "CorrelationResult",
    "correlation_by_type",
    "Finding",
    "evaluate_findings",
]
