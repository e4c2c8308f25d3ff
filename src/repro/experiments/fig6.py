"""Figure 6: shelf enclosure model effect at fixed disk model (low-end).

Four panels (Disk A-2, A-3, D-2, D-3), each comparing shelf enclosure
models A and B on low-end systems.  Checks encode Finding 6: the shelf
model shifts the *physical interconnect* AFR significantly while
leaving the other failure types roughly alone, and the better shelf
model differs by disk model (interoperability).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.breakdown import afr_by_shelf_model
from repro.core.report import format_breakdown
from repro.core.significance import compare_rates
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.types import FailureType
from repro.topology.classes import SystemClass

PANEL_DISK_MODELS = ("A-2", "A-3", "D-2", "D-3")


@register("fig6", "AFR by shelf enclosure model (low-end, fixed disk model)")
def run(context: ExperimentContext) -> ExperimentResult:
    """All four panels plus the per-panel T-tests."""
    dataset = context.dataset("paper-default")
    fleet = dataset.fleet
    sections: List[str] = []
    data: Dict[str, Dict[str, float]] = {}
    better: Dict[str, str] = {}
    significant = 0
    compared = 0
    other_types_shifted = 0

    for disk_model in PANEL_DISK_MODELS:
        rows = afr_by_shelf_model(dataset, SystemClass.LOW_END, disk_model)
        sections.append(
            format_breakdown("Figure 6: low-end Disk %s" % disk_model, rows)
        )
        if len(rows) < 2:
            continue
        compared += 1
        panel = fleet.where(system_class=SystemClass.LOW_END, disk_model=disk_model)
        shelf_a = panel & fleet.where(shelf_model="A")
        shelf_b = panel & fleet.where(shelf_model="B")
        phys = compare_rates(
            dataset,
            shelf_a,
            shelf_b,
            FailureType.PHYSICAL_INTERCONNECT,
            description="low-end Disk %s, shelf A vs B" % disk_model,
        )
        disk_cmp = compare_rates(
            dataset,
            shelf_a,
            shelf_b,
            FailureType.DISK,
            description="low-end Disk %s disk-failure control" % disk_model,
        )
        sections.append("  " + phys.summary())
        if phys.significant_at(0.95):
            significant += 1
        if disk_cmp.significant_at(0.95):
            other_types_shifted += 1
        better[disk_model] = (
            "A" if phys.group_a.percent < phys.group_b.percent else "B"
        )
        data[disk_model] = {
            "shelf_a_phys": phys.group_a.percent,
            "shelf_b_phys": phys.group_b.percent,
            "p_value": phys.test.p_value,
            "disk_control_p_value": disk_cmp.test.p_value,
        }

    checks = {
        "all_panels_compared": compared == len(PANEL_DISK_MODELS),
        # Finding 6: the shelf model's interconnect effect is real.
        "interconnect_shift_significant": significant >= 2,
        # ... and specific to interconnects: disk failures (a control)
        # should mostly not shift with the shelf model.
        "disk_failures_mostly_unshifted": other_types_shifted <= 1,
        # Interoperability: no single shelf model is best everywhere.
        "best_shelf_depends_on_disk": len(set(better.values())) >= 2,
    }
    return ExperimentResult(
        experiment_id="fig6",
        title="AFR by shelf enclosure model (low-end, fixed disk model)",
        text="\n\n".join(sections),
        data={"panels": data, "better_shelf": better},
        checks=checks,
    )
