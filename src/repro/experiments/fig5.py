"""Figure 5: AFR by disk model, per class + shelf-enclosure panel.

Six panels, one per shipping (class, shelf model) combination; checks
encode Findings 3-5: Disk H systems show roughly double the AFR, disk
AFR is stable across environments while subsystem AFR is not, and AFR
does not grow with capacity.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.core.afr import dataset_afr
from repro.core.breakdown import afr_by_disk_model
from repro.core.findings import capacity_trend, noise_corrected_cv
from repro.core.report import format_breakdown
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType
from repro.fleet.calibration import PROBLEMATIC_DISK_FAMILY
from repro.topology.classes import SystemClass

#: The paper's six panels, in figure order (a)-(f).
PANELS: List[Tuple[str, SystemClass, str]] = [
    ("fig5a", SystemClass.NEARLINE, "C"),
    ("fig5b", SystemClass.LOW_END, "A"),
    ("fig5c", SystemClass.LOW_END, "B"),
    ("fig5d", SystemClass.MID_RANGE, "C"),
    ("fig5e", SystemClass.MID_RANGE, "B"),
    ("fig5f", SystemClass.HIGH_END, "B"),
]


def _register_panel(experiment_id: str, system_class: SystemClass, shelf: str):
    title = "AFR by disk model: %s with shelf model %s" % (
        system_class.label,
        shelf,
    )

    @register(experiment_id, title)
    def run(context: ExperimentContext) -> ExperimentResult:
        dataset = context.dataset("paper-default")
        rows = afr_by_disk_model(dataset, system_class, shelf)
        data = {
            row.label: {
                **{ft.value: row.percent(ft) for ft in FAILURE_TYPE_ORDER},
                "total": row.total_percent,
                "systems": row.systems,
            }
            for row in rows
        }
        h_rows = [r for r in rows if r.label.startswith("Disk H")]
        other_rows = [r for r in rows if not r.label.startswith("Disk H")]
        checks = {"panel_nonempty": bool(rows)}
        if h_rows and other_rows:
            h_mean = statistics.mean(r.total_percent for r in h_rows)
            other_mean = statistics.mean(r.total_percent for r in other_rows)
            # Finding 3: the problematic family stands well above peers
            # (the fleet-wide ~2x claim is checked by the findings
            # engine; per-panel samples are noisier, hence 1.25x here).
            checks["disk_h_elevated"] = h_mean > 1.25 * other_mean
            # Finding 3 detail: H inflates protocol+performance too.
            # Pool events over exposure (means of noisy per-model rates
            # are fragile at bench scale).
            fleet = dataset.fleet
            panel = fleet.where(system_class=system_class, shelf_model=shelf)
            h_family = fleet.where(disk_family=PROBLEMATIC_DISK_FAMILY)
            h_pp = sum(
                dataset_afr(dataset, ft, panel & h_family).percent
                for ft in (FailureType.PROTOCOL, FailureType.PERFORMANCE)
            )
            other_pp = sum(
                dataset_afr(dataset, ft, panel & ~h_family).percent
                for ft in (FailureType.PROTOCOL, FailureType.PERFORMANCE)
            )
            checks["disk_h_inflates_protocol_performance"] = h_pp > other_pp
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            text=format_breakdown("Figure 5 panel: %s" % title, rows),
            data={"rows": data},
            checks=checks,
        )

    return run


for _id, _cls, _shelf in PANELS:
    _register_panel(_id, _cls, _shelf)


@register("fig5-stability", "Cross-environment stability of disk vs subsystem AFR")
def run_stability(context: ExperimentContext) -> ExperimentResult:
    """Finding 4/5 rollup across all panels.

    For every disk model deployed in 2+ environments, compare the
    coefficient of variation of its *disk* AFR against that of its
    *subsystem* AFR across environments; and check the capacity
    non-trend on the D family (Fig. 5e's D-1 vs D-2).
    """
    dataset = context.dataset("paper-default")
    fleet = dataset.fleet
    environments: Dict[str, List[Tuple[SystemClass, str]]] = {}
    for _, system_class, shelf in PANELS:
        panel = fleet.where(system_class=system_class, shelf_model=shelf)
        models = {model for model, inside in zip(fleet.disk_models, panel.tolist()) if inside}
        for model in models:
            environments.setdefault(model, []).append((system_class, shelf))

    disk_cvs: List[float] = []
    total_cvs: List[float] = []
    per_model: Dict[str, Dict[str, float]] = {}
    for model, envs in sorted(environments.items()):
        # Only models spanning 2+ system classes face genuinely
        # different environments; same-class panels differ only by
        # sampling noise and would dilute the comparison.
        if len({system_class for system_class, _ in envs}) < 2:
            continue
        disk_rates, disk_counts, total_rates, total_counts = [], [], [], []
        for system_class, shelf in envs:
            systems = fleet.where(system_class=system_class, shelf_model=shelf, disk_model=model)
            disk = dataset_afr(dataset, FailureType.DISK, systems)
            total = dataset_afr(dataset, None, systems)
            if disk.count < 10:
                continue  # too few events to speak to stability
            disk_rates.append(disk.percent)
            disk_counts.append(disk.count)
            total_rates.append(total.percent)
            total_counts.append(total.count)
        if len(disk_rates) < 2:
            continue
        disk_cv = noise_corrected_cv(disk_rates, disk_counts)
        total_cv = noise_corrected_cv(total_rates, total_counts)
        disk_cvs.append(disk_cv)
        total_cvs.append(total_cv)
        per_model[model] = {"disk_cv": disk_cv, "subsystem_cv": total_cv}

    trend = capacity_trend(dataset)
    checks = {
        "models_shared_across_environments": len(disk_cvs) >= 2,
        # Finding 4: disk AFR varies less across environments than
        # subsystem AFR does.  At tiny fleet scales no model may clear
        # the per-environment event floor; an empty comparison is a
        # failed check, not a crash.
        "disk_afr_more_stable_than_subsystem": bool(disk_cvs)
        and statistics.mean(disk_cvs) < statistics.mean(total_cvs),
        # Finding 5: no upward trend of disk AFR with capacity.
        "capacity_no_upward_trend": trend["mean"] <= 0.05,
    }
    lines = ["Cross-environment stability (Findings 4-5)"]
    for model, cvs in per_model.items():
        lines.append(
            "  %-5s disk AFR CV %.2f   subsystem AFR CV %.2f"
            % (model, cvs["disk_cv"], cvs["subsystem_cv"])
        )
    lines.append(
        "  capacity trend (larger minus smaller, disk AFR %%): "
        + ", ".join(
            "%s %+0.2f" % (key, value)
            for key, value in trend.items()
            if key != "mean"
        )
        + "  mean %+0.2f" % trend["mean"]
    )
    return ExperimentResult(
        experiment_id="fig5-stability",
        title="Cross-environment stability of disk vs subsystem AFR",
        text="\n".join(lines),
        data={"per_model": per_model, "capacity_trend": trend},
        checks=checks,
    )
