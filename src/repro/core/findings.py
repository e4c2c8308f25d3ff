"""Automated checks of the paper's eleven findings.

Each check recomputes a finding's supporting statistic from a dataset
and reports whether the *shape* the paper describes holds (the absolute
values depend on the simulated substrate; the relationships should not).
The benchmark harness and EXPERIMENTS.md are generated from these.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional

from repro.core.afr import dataset_afr
from repro.core.breakdown import (
    afr_by_class,
    afr_by_path_config,
    afr_by_shelf_model,
    disk_failure_share_range,
    row_by_label,
)
from repro.core.correlation import correlation_by_type
from repro.core.dataset import FailureDataset
from repro.core.significance import compare_rates
from repro.core.timebetween import analyze_gaps
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.fleet.calibration import PROBLEMATIC_DISK_FAMILY
from repro.topology.classes import SystemClass


@dataclasses.dataclass(frozen=True)
class Finding:
    """One finding's automated verdict.

    Attributes:
        number: the paper's finding number (1-11).
        statement: abbreviated statement of the finding.
        passed: whether the dataset reproduces the shape.
        details: the numbers behind the verdict.
    """

    number: int
    statement: str
    passed: bool
    details: Dict[str, float]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "PASS" if self.passed else "FAIL"
        return "Finding %2d [%s] %s" % (self.number, flag, self.statement)


def evaluate_findings(
    dataset: FailureDataset, skip: Optional[List[int]] = None
) -> List[Finding]:
    """Evaluate every finding the dataset can support.

    Args:
        dataset: a paper-default simulation's dataset (needs all four
            classes for findings 1-7).
        skip: finding numbers to leave out (e.g. on reduced fleets).
    """
    skip_set = set(skip or [])
    checks = [
        _finding_1,
        _finding_2,
        _finding_3,
        _finding_4,
        _finding_5,
        _finding_6,
        _finding_7,
        _finding_8,
        _finding_9,
        _finding_10,
        _finding_11,
    ]
    findings: List[Finding] = []
    for number, check in enumerate(checks, start=1):
        if number in skip_set:
            continue
        findings.append(check(dataset))
    return findings


def _finding_1(dataset: FailureDataset) -> Finding:
    """Disk failures are 20-55% of subsystem failures; interconnect is big."""
    rows = afr_by_class(dataset, exclude_problematic_family=True)
    disk_share = disk_failure_share_range(rows)
    phys_shares = [
        row.share(FailureType.PHYSICAL_INTERCONNECT)
        for row in rows
        if row.total_percent > 0
    ]
    passed = (
        0.15 <= disk_share["min"]
        and disk_share["max"] <= 0.60
        and min(phys_shares) >= 0.20
    )
    return Finding(
        number=1,
        statement="disk failures are 20-55% of subsystem failures; "
        "physical interconnects contribute 27-68%",
        passed=passed,
        details={
            "disk_share_min": disk_share["min"],
            "disk_share_max": disk_share["max"],
            "phys_share_min": min(phys_shares),
            "phys_share_max": max(phys_shares),
        },
    )


def _finding_2(dataset: FailureDataset) -> Finding:
    """Near-line disks fail more than low-end's, yet the subsystem less."""
    rows = afr_by_class(dataset, exclude_problematic_family=True)
    nearline = row_by_label(rows, SystemClass.NEARLINE.label)
    low_end = row_by_label(rows, SystemClass.LOW_END.label)
    if nearline is None or low_end is None:
        raise AnalysisError("finding 2 needs near-line and low-end systems")
    nl_disk = nearline.percent(FailureType.DISK)
    le_disk = low_end.percent(FailureType.DISK)
    passed = nl_disk > le_disk and nearline.total_percent < low_end.total_percent
    return Finding(
        number=2,
        statement="near-line disk AFR exceeds low-end's, but near-line "
        "subsystem AFR is lower",
        passed=passed,
        details={
            "nearline_disk_afr": nl_disk,
            "lowend_disk_afr": le_disk,
            "nearline_total_afr": nearline.total_percent,
            "lowend_total_afr": low_end.total_percent,
        },
    )


def _finding_3(dataset: FailureDataset) -> Finding:
    """Systems on the problematic disk family show ~2x the AFR."""
    h_systems = dataset.fleet.where(disk_family=PROBLEMATIC_DISK_FAMILY)
    h_afr = dataset_afr(dataset, systems=h_systems).percent
    other_afr = dataset_afr(dataset, systems=~h_systems).percent
    ratio = h_afr / other_afr if other_afr > 0 else float("inf")
    # The paper's "factor of two" compares within a Fig. 5 panel; this
    # fleet-wide ratio dilutes it (near-line systems never shipped H),
    # so the bar sits a little lower.
    return Finding(
        number=3,
        statement="the problematic disk family roughly doubles subsystem AFR",
        passed=ratio >= 1.4,
        details={"h_afr": h_afr, "other_afr": other_afr, "ratio": ratio},
    )


def noise_corrected_cv(rates: List[float], counts: List[int]) -> float:
    """Coefficient of variation with Poisson sampling noise removed.

    An estimated rate from ``n`` events has sampling CV ~ 1/sqrt(n);
    subtracting the expected sampling variance from the measured CV^2
    (classic deattenuation) isolates the *environmental* variation the
    paper's Finding 4 is about.  Clamped at zero.
    """
    import statistics

    if len(rates) < 2:
        raise AnalysisError("need at least 2 environments")
    mean = statistics.mean(rates)
    if mean <= 0.0:
        return 0.0
    measured_cv_sq = (statistics.pstdev(rates) / mean) ** 2
    sampling_cv_sq = statistics.mean(1.0 / max(count, 1) for count in counts)
    return math.sqrt(max(0.0, measured_cv_sq - sampling_cv_sq))


def _finding_4(dataset: FailureDataset) -> Finding:
    """Disk AFR is stable across environments; subsystem AFR is not."""
    # Environments = (class, shelf model); compare across environments
    # for each disk model deployed in 2+ of them.
    fleet = dataset.fleet
    env_keys = sorted(
        set(zip(fleet.system_classes, fleet.shelf_models, fleet.disk_models)),
        key=lambda key: (key[0].value, key[1], key[2]),
    )
    by_model: Dict[str, List[tuple]] = {}
    for system_class, shelf_model, disk_model in env_keys:
        by_model.setdefault(disk_model, []).append((system_class, shelf_model))
    disk_cvs: List[float] = []
    total_cvs: List[float] = []
    for disk_model, environments in by_model.items():
        # Only models spanning genuinely different environments (two or
        # more system classes) can show the effect; same-class pairs
        # differ only by sampling noise.
        if len({system_class for system_class, _ in environments}) < 2:
            continue
        disk_rates: List[float] = []
        disk_counts: List[int] = []
        total_rates: List[float] = []
        total_counts: List[int] = []
        for system_class, shelf_model in environments:
            systems = fleet.where(
                system_class=system_class, shelf_model=shelf_model, disk_model=disk_model
            )
            disk = dataset_afr(dataset, FailureType.DISK, systems)
            total = dataset_afr(dataset, None, systems)
            if disk.count < 10:
                continue  # too noisy to speak to stability
            disk_rates.append(disk.percent)
            disk_counts.append(disk.count)
            total_rates.append(total.percent)
            total_counts.append(total.count)
        if len(disk_rates) < 2:
            continue
        disk_cvs.append(noise_corrected_cv(disk_rates, disk_counts))
        total_cvs.append(noise_corrected_cv(total_rates, total_counts))
    if not disk_cvs:
        raise AnalysisError("finding 4 needs disk models shared across environments")
    mean_disk_cv = sum(disk_cvs) / len(disk_cvs)
    mean_total_cv = sum(total_cvs) / len(total_cvs)
    return Finding(
        number=4,
        statement="same disk model: similar disk AFR across environments, "
        "but very different subsystem AFR",
        passed=mean_disk_cv < mean_total_cv,
        details={
            "mean_disk_afr_cv": mean_disk_cv,
            "mean_subsystem_afr_cv": mean_total_cv,
            "models_compared": float(len(disk_cvs)),
        },
    )


#: Same-family (smaller, larger) capacity pairs present in the catalog.
CAPACITY_PAIRS = (
    ("A-2", "A-3"),
    ("C-1", "C-2"),
    ("D-1", "D-2"),
    ("D-2", "D-3"),
    ("F-1", "F-2"),
    ("I-1", "I-2"),
    ("J-1", "J-2"),
)


def capacity_trend(dataset: FailureDataset) -> Dict[str, float]:
    """Fleet-wide disk AFR change from smaller to larger capacity.

    Returns ``{"<small>-><large>": afr_large - afr_small, ...}`` plus a
    ``"mean"`` entry; positive mean would indicate AFR growing with
    capacity (which the paper — and Finding 5 — rejects).
    """
    diffs: Dict[str, float] = {}
    values: List[float] = []
    fleet = dataset.fleet
    for small, large in CAPACITY_PAIRS:
        small_afr = dataset_afr(dataset, FailureType.DISK, fleet.where(disk_model=small))
        large_afr = dataset_afr(dataset, FailureType.DISK, fleet.where(disk_model=large))
        if small_afr.count + large_afr.count < 20:
            continue  # pair too thin to read a trend from
        diff = large_afr.percent - small_afr.percent
        diffs["%s->%s" % (small, large)] = diff
        values.append(diff)
    if not values:
        raise AnalysisError("no capacity pair has enough events")
    diffs["mean"] = sum(values) / len(values)
    return diffs


def _finding_5(dataset: FailureDataset) -> Finding:
    """AFR does not increase with disk capacity (Fig. 5's non-trend)."""
    diffs = capacity_trend(dataset)
    mean_diff = diffs["mean"]
    increases = sum(
        1 for key, value in diffs.items() if key != "mean" and value > 0.25
    )
    pairs = len(diffs) - 1
    passed = mean_diff <= 0.05 and increases <= pairs // 2
    return Finding(
        number=5,
        statement="AFR does not increase with disk capacity "
        "(no upward trend across same-family capacity pairs)",
        passed=passed,
        details=dict(diffs, pairs=float(pairs)),
    )


def _finding_6(dataset: FailureDataset) -> Finding:
    """Shelf model shifts interconnect AFR; best shelf depends on disk."""
    fleet = dataset.fleet
    better_shelf: Dict[str, str] = {}
    significant = 0
    compared = 0
    for disk_model in ("A-2", "A-3", "D-2", "D-3"):
        rows = afr_by_shelf_model(dataset, SystemClass.LOW_END, disk_model)
        if len(rows) < 2:
            continue
        panel = fleet.where(system_class=SystemClass.LOW_END, disk_model=disk_model)
        comparison = compare_rates(
            dataset,
            panel & fleet.where(shelf_model="A"),
            panel & fleet.where(shelf_model="B"),
            FailureType.PHYSICAL_INTERCONNECT,
            description="low-end %s: shelf A vs B" % disk_model,
        )
        compared += 1
        if comparison.significant_at(0.95):
            significant += 1
        better_shelf[disk_model] = (
            "A" if comparison.group_a.percent < comparison.group_b.percent else "B"
        )
    if compared == 0:
        raise AnalysisError("finding 6 needs low-end systems on shelves A and B")
    distinct_best = len(set(better_shelf.values()))
    return Finding(
        number=6,
        statement="shelf enclosure model significantly shifts interconnect "
        "AFR, and the better shelf differs by disk model",
        passed=significant >= 1 and distinct_best >= 2,
        details={
            "comparisons": float(compared),
            "significant_at_95": float(significant),
            "distinct_best_shelves": float(distinct_best),
        },
    )


def _finding_7(dataset: FailureDataset) -> Finding:
    """Dual path cuts interconnect AFR 50-60%, subsystem AFR 30-40%."""
    phys_reductions: List[float] = []
    total_reductions: List[float] = []
    for system_class in (SystemClass.MID_RANGE, SystemClass.HIGH_END):
        rows = afr_by_path_config(dataset, system_class)
        single = row_by_label(rows, "Single Path")
        dual = row_by_label(rows, "Dual Paths")
        if single is None or dual is None:
            continue
        phys_s = single.percent(FailureType.PHYSICAL_INTERCONNECT)
        phys_d = dual.percent(FailureType.PHYSICAL_INTERCONNECT)
        if phys_s > 0:
            phys_reductions.append(1.0 - phys_d / phys_s)
        if single.total_percent > 0:
            total_reductions.append(1.0 - dual.total_percent / single.total_percent)
    if not phys_reductions:
        raise AnalysisError("finding 7 needs dual-path mid/high-end systems")
    passed = all(0.35 <= r <= 0.75 for r in phys_reductions) and all(
        0.15 <= r <= 0.60 for r in total_reductions
    )
    return Finding(
        number=7,
        statement="dual paths reduce interconnect AFR by 50-60% and "
        "subsystem AFR by 30-40%",
        passed=passed,
        details={
            "phys_reduction_min": min(phys_reductions),
            "phys_reduction_max": max(phys_reductions),
            "total_reduction_min": min(total_reductions),
            "total_reduction_max": max(total_reductions),
        },
    )


def _finding_8(dataset: FailureDataset) -> Finding:
    """Non-disk types are much burstier than disk failures; gamma fits disk."""
    disk = analyze_gaps(dataset, "shelf", FailureType.DISK)
    phys = analyze_gaps(dataset, "shelf", FailureType.PHYSICAL_INTERCONNECT)
    proto = analyze_gaps(dataset, "shelf", FailureType.PROTOCOL)
    perf = analyze_gaps(dataset, "shelf", FailureType.PERFORMANCE)
    gamma_beats_exponential = False
    if disk.fits:
        by_name = {fit.name: fit for fit in disk.fits}
        gamma_beats_exponential = (
            by_name["gamma"].log_likelihood > by_name["exponential"].log_likelihood
        )
    passed = (
        phys.burst_fraction > disk.burst_fraction
        and proto.burst_fraction > disk.burst_fraction
        and perf.burst_fraction > disk.burst_fraction
        and gamma_beats_exponential
    )
    return Finding(
        number=8,
        statement="interconnect/protocol/performance failures are burstier "
        "than disk failures; gamma fits disk gaps best",
        passed=passed,
        details={
            "disk_burst_fraction": disk.burst_fraction,
            "phys_burst_fraction": phys.burst_fraction,
            "protocol_burst_fraction": proto.burst_fraction,
            "performance_burst_fraction": perf.burst_fraction,
            "gamma_beats_exponential": float(gamma_beats_exponential),
        },
    )


def _finding_9(dataset: FailureDataset) -> Finding:
    """RAID-group failures are less bursty than shelf failures."""
    shelf = analyze_gaps(dataset, "shelf", None)
    group = analyze_gaps(dataset, "raid_group", None)
    return Finding(
        number=9,
        statement="failures within a RAID group are less bursty than "
        "within a shelf (spanning helps)",
        passed=group.burst_fraction < shelf.burst_fraction,
        details={
            "shelf_burst_fraction": shelf.burst_fraction,
            "raid_group_burst_fraction": group.burst_fraction,
        },
    )


def _finding_10(dataset: FailureDataset) -> Finding:
    """RAID-group failures still exhibit strong temporal locality."""
    group = analyze_gaps(dataset, "raid_group", None)
    return Finding(
        number=10,
        statement="RAID-group failures still show strong temporal locality",
        passed=group.burst_fraction >= 0.15,
        details={"raid_group_burst_fraction": group.burst_fraction},
    )


def _finding_11(dataset: FailureDataset) -> Finding:
    """Every failure type self-correlates: empirical P(2) >> theoretical."""
    results = correlation_by_type(dataset, "shelf", window_years=1.0)
    inflations = {r.failure_type.value: r.inflation for r in results}
    all_excess = all(r.p2_empirical > r.p2_theoretical for r in results)
    significant = sum(1 for r in results if r.correlated)
    details: Dict[str, float] = {
        "inflation_%s" % key: value for key, value in inflations.items()
    }
    details["types_significant_at_995"] = float(significant)
    return Finding(
        number=11,
        statement="failures are not independent: empirical P(2) exceeds "
        "the independence model's P(1)^2/2 for every type",
        passed=all_excess and significant >= 3,
        details=details,
    )
