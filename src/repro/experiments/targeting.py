"""Experiment: which failure type is worth building resiliency against?

The paper's §7 future work: "design resiliency mechanisms targeting
individual failure types."  Step zero is ranking the targets.  For each
failure type, remove its failures from the recorded history (a perfect
targeted mechanism) and measure the marginal drop in subsystem AFR per
class and in RAID data-loss risk.  The checks encode what the paper's
AFR breakdowns imply: interconnect resiliency is the biggest lever in
primary classes; disk-targeted resiliency (what RAID already is) is the
biggest lever only in near-line systems — and interconnect removal also
buys the largest data-loss reduction, because its failures arrive in
group-threatening bursts.
"""

from __future__ import annotations

from typing import Dict

from repro.core.afr import dataset_afr
from repro.core.whatif import counterfactual_without_type
from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType
from repro.raid.dataloss import estimate_dataloss
from repro.topology.classes import SYSTEM_CLASS_ORDER


@register("target-ranking", "Ranking resiliency targets by failure type")
def run(context: ExperimentContext) -> ExperimentResult:
    """Rank the marginal benefit of perfect per-type resiliency."""
    dataset = context.dataset("paper-default").excluding_disk_family()
    base_loss = estimate_dataloss(dataset).loss_rate_per_1000_group_years()

    afr_cut: Dict[str, Dict[str, float]] = {}
    loss_cut: Dict[str, float] = {}
    for failure_type in FAILURE_TYPE_ORDER:
        removed = counterfactual_without_type(dataset, failure_type)
        per_class: Dict[str, float] = {}
        for system_class in SYSTEM_CLASS_ORDER:
            systems = dataset.fleet.where(system_class=system_class)
            before = dataset_afr(dataset, None, systems).percent
            after = dataset_afr(removed, None, systems).percent
            per_class[system_class.value] = (
                0.0 if before == 0.0 else 1.0 - after / before
            )
        afr_cut[failure_type.value] = per_class
        after_loss = estimate_dataloss(removed).loss_rate_per_1000_group_years()
        loss_cut[failure_type.value] = (
            0.0 if base_loss == 0.0 else 1.0 - after_loss / base_loss
        )

    def best_target(class_value: str) -> str:
        return max(afr_cut, key=lambda ft: afr_cut[ft][class_value])

    checks = {
        # Primary classes: the interconnect is the top target.
        "lowend_targets_interconnect": best_target("low_end")
        == FailureType.PHYSICAL_INTERCONNECT.value,
        "midrange_targets_interconnect": best_target("mid_range")
        == FailureType.PHYSICAL_INTERCONNECT.value,
        # Near-line: disks are genuinely the biggest contributor there.
        "nearline_targets_disks": best_target("nearline")
        == FailureType.DISK.value,
        # Bursty interconnect failures also dominate data-loss risk.
        "interconnect_cuts_loss_most": loss_cut[
            FailureType.PHYSICAL_INTERCONNECT.value
        ]
        == max(loss_cut.values()),
    }
    lines = ["Marginal subsystem-AFR cut from perfect per-type resiliency:"]
    header = "  %-24s" % "target type" + "".join(
        "%11s" % c.value for c in SYSTEM_CLASS_ORDER
    ) + "%12s" % "loss cut"
    lines.append(header)
    for failure_type in FAILURE_TYPE_ORDER:
        row = afr_cut[failure_type.value]
        lines.append(
            "  %-24s" % failure_type.value
            + "".join(
                "%10.0f%%" % (100.0 * row[c.value]) for c in SYSTEM_CLASS_ORDER
            )
            + "%11.0f%%" % (100.0 * loss_cut[failure_type.value])
        )
    return ExperimentResult(
        experiment_id="target-ranking",
        title="Ranking resiliency targets by failure type",
        text="\n".join(lines),
        data={"afr_cut": afr_cut, "loss_cut": loss_cut},
        checks=checks,
    )
