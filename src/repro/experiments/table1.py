"""Table 1: overview of the studied storage systems.

Regenerates the paper's population table — per class: system, shelf,
disk (ever installed), and RAID group counts, path configuration, disk
interface, and failure-event counts per type — from the scaled
simulated fleet.
"""

from __future__ import annotations

from repro.core.report import class_overview, format_overview
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.types import FAILURE_TYPE_ORDER
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass


@register("table1", "Overview of studied storage systems")
def run(context: ExperimentContext) -> ExperimentResult:
    """Build the Table 1 overview and check its structural properties."""
    dataset = context.dataset("paper-default")
    fleet = dataset.fleet
    overview = class_overview(dataset)

    rows = {
        row.system_class.value: {
            "systems": row.systems,
            "shelves": row.shelves,
            "disks_ever": row.disks_ever,
            "raid_groups": row.raid_groups,
            "dual_path_systems": row.dual_path_systems,
            "disk_interface": row.system_class.disk_interface,
            "failure_events": {
                ft.value: row.failure_events[ft] for ft in FAILURE_TYPE_ORDER
            },
        }
        for row in overview
    }

    checks = {
        "all_four_classes_present": len(rows) == 4,
        # Table 1 structure: near-line is SATA, primaries are FC.
        "nearline_is_sata": rows.get(SystemClass.NEARLINE.value, {}).get(
            "disk_interface"
        )
        == "SATA",
        "primaries_are_fc": all(
            rows[c.value]["disk_interface"] == "FC"
            for c in SYSTEM_CLASS_ORDER
            if c is not SystemClass.NEARLINE and c.value in rows
        ),
        # Only mid/high-end support multipathing, about a third use it.
        "dual_path_only_mid_high": all(
            rows[c.value]["dual_path_systems"] == 0
            for c in (SystemClass.NEARLINE, SystemClass.LOW_END)
            if c.value in rows
        ),
        # Low-end is the most numerous class (22,031 of 39,000 systems).
        "lowend_most_numerous": rows[SystemClass.LOW_END.value]["systems"]
        == max(r["systems"] for r in rows.values()),
        # Disks ever installed exceeds bays (replacements happened).
        "replacements_recorded": fleet.disk_count_ever > fleet.slot_count,
        # Every class recorded events of all four types.
        "all_types_observed": all(
            all(count > 0 for count in row["failure_events"].values())
            for row in rows.values()
        ),
    }
    return ExperimentResult(
        experiment_id="table1",
        title="Overview of studied storage systems",
        text=format_overview(overview),
        data={"rows": rows, "scale": context.scale},
        checks=checks,
    )
