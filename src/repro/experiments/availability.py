"""Experiment: availability (SLA) consequences of subsystem failures.

The paper's motivation (§1.1) is sizing resiliency to meet SLA metrics
like data availability.  This experiment turns the simulated failure
streams into per-class availability — and surfaces a twist on the
low-end paradox: AFR is a per-*disk* metric but availability is a
per-*system* metric, so the low-end class (worst per-disk subsystem
AFR, but only ~12 disks per system) delivers the *best* availability,
while the big near-line/mid/high systems (~80-95 disks each) accumulate
the most interruptions per system.  Dual-path systems still beat
single-path peers, since masking removes outages outright.
"""

from __future__ import annotations

from repro.core.availability import (
    availability_by_class,
    availability_of,
    format_availability,
)
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.topology.classes import SystemClass


@register("availability", "Per-class availability (SLA view)")
def run(context: ExperimentContext) -> ExperimentResult:
    """Availability per class plus the single/dual-path comparison."""
    dataset = context.dataset("paper-default")
    reports = availability_by_class(dataset)
    by_label = {report.label: report for report in reports}

    # Dual vs single path availability within the high-end class.
    fleet = dataset.fleet
    single, dual = availability_of(
        dataset,
        (
            (label, fleet.where(system_class=SystemClass.HIGH_END, dual_path=dual_path))
            for label, dual_path in (("single path", False), ("dual paths", True))
        ),
    )
    single_avail = single.availability
    dual_avail = dual.availability

    checks = {
        "all_classes_above_two_nines": all(
            report.nines > 2.0 for report in reports
        ),
        # Per-system availability inverts the per-disk AFR ordering:
        # small systems interrupt least, so low-end (12 disks/system)
        # wins despite its worst per-disk subsystem AFR.
        "lowend_best_availability": by_label["Low-end"].availability
        == max(report.availability for report in reports),
        "dual_path_more_available": dual_avail > single_avail,
    }
    text = "%s\n\nHigh-end single path availability %.5f%% vs dual path %.5f%%" % (
        format_availability(reports),
        100.0 * single_avail,
        100.0 * dual_avail,
    )
    return ExperimentResult(
        experiment_id="availability",
        title="Per-class availability (SLA view)",
        text=text,
        data={
            "by_class": {
                report.label: {
                    "availability": report.availability,
                    "nines": report.nines,
                    "downtime_hours_per_system_year": report.downtime_hours_per_system_year,
                }
                for report in reports
            },
            "highend_single_availability": single_avail,
            "highend_dual_availability": dual_avail,
        },
        checks=checks,
    )
