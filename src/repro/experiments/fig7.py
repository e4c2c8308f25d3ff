"""Figure 7: single-path vs dual-path AFR (mid-range and high-end).

Checks encode Finding 7: the redundant FC network cuts physical
interconnect AFR by 50-60% and subsystem AFR by 30-40%, with little
effect on the other failure types, significant at high confidence —
and yet the dual-path rate stays far above the idealized product of two
independent networks, because backplane faults and shared physical HBAs
have no redundant path.
"""

from __future__ import annotations

from typing import Dict

from repro.core.breakdown import afr_by_path_config, row_by_label
from repro.core.report import format_breakdown
from repro.core.significance import compare_rates
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.types import FailureType
from repro.topology.classes import SystemClass


def _panel(experiment_id: str, system_class: SystemClass):
    title = "Single vs dual path AFR: %s systems" % system_class.label

    @register(experiment_id, title)
    def run(context: ExperimentContext) -> ExperimentResult:
        dataset = context.dataset("paper-default")
        rows = afr_by_path_config(dataset, system_class)
        single = row_by_label(rows, "Single Path")
        dual = row_by_label(rows, "Dual Paths")
        comparison = compare_rates(
            dataset,
            dataset.fleet.where(system_class=system_class, dual_path=False),
            dataset.fleet.where(system_class=system_class, dual_path=True),
            FailureType.PHYSICAL_INTERCONNECT,
            description="%s single vs dual path" % system_class.label,
            confidence=0.999,
        )
        phys_reduction = comparison.reduction
        total_reduction = 1.0 - dual.total_percent / single.total_percent
        # The idealized two-independent-network failure probability:
        # (single-path interconnect AFR)^2 — orders of magnitude below
        # what dual-path systems actually see.
        idealized = (single.percent(FailureType.PHYSICAL_INTERCONNECT) / 100.0) ** 2 * 100.0
        data: Dict[str, float] = {
            "single_phys": single.percent(FailureType.PHYSICAL_INTERCONNECT),
            "dual_phys": dual.percent(FailureType.PHYSICAL_INTERCONNECT),
            "phys_reduction": phys_reduction,
            "total_reduction": total_reduction,
            "idealized_dual_phys": idealized,
            "p_value": comparison.test.p_value,
        }
        checks = {
            # Finding 7's headline bands (with simulation-width slack).
            "interconnect_reduced_50_60pct": 0.35 <= phys_reduction <= 0.75,
            "subsystem_reduced_30_40pct": 0.15 <= total_reduction <= 0.55,
            "significant_at_99": comparison.significant_at(0.99),
            # Disk failures should be untouched by path redundancy.
            "disk_afr_untouched": abs(
                single.percent(FailureType.DISK) - dual.percent(FailureType.DISK)
            )
            < 0.5 * max(single.percent(FailureType.DISK), 0.2),
            # Reality stays far above the independence ideal.
            "far_above_idealized_product": dual.percent(
                FailureType.PHYSICAL_INTERCONNECT
            )
            > 5.0 * idealized,
        }
        text = "%s\n  %s\n  idealized two-network AFR: %.4f%%" % (
            format_breakdown("Figure 7: %s" % title, rows),
            comparison.summary(),
            idealized,
        )
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            text=text,
            data=data,
            checks=checks,
        )

    return run


_panel("fig7a", SystemClass.MID_RANGE)
_panel("fig7b", SystemClass.HIGH_END)
