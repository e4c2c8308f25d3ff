"""Table 1: overview of the studied storage systems.

Regenerates the paper's population table — per class: system, shelf,
disk (ever installed), and RAID group counts, path configuration, disk
interface, and failure-event counts per type — from the scaled
simulated fleet.
"""

from __future__ import annotations

from repro.core.report import format_overview
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.types import FAILURE_TYPE_ORDER
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass


@register("table1", "Overview of studied storage systems")
def run(context: ExperimentContext) -> ExperimentResult:
    """Build the Table 1 overview and check its structural properties."""
    dataset = context.dataset("paper-default")
    fleet = dataset.fleet

    rows = {}
    for system_class in SYSTEM_CLASS_ORDER:
        systems = fleet.systems_of_class(system_class)
        if not systems:
            continue
        ids = {s.system_id for s in systems}
        counts = {ft.value: 0 for ft in FAILURE_TYPE_ORDER}
        for event in dataset.events:
            if event.system_id in ids:
                counts[event.failure_type.value] += 1
        rows[system_class.value] = {
            "systems": len(systems),
            "shelves": sum(s.shelf_count for s in systems),
            "disks_ever": sum(s.disk_count_ever for s in systems),
            "raid_groups": sum(s.raid_group_count for s in systems),
            "dual_path_systems": sum(1 for s in systems if s.dual_path),
            "disk_interface": system_class.disk_interface,
            "failure_events": counts,
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
        text=format_overview(dataset),
        data={"rows": rows, "scale": context.scale},
        checks=checks,
    )
