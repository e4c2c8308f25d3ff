"""Evaluate a predict-and-replace maintenance policy on a history.

Protocol:

1. **Train** — build prediction samples whose observation times *and*
   label horizons lie before a cutoff (default: month 22 of 44), and
   fit the logistic model on them.
2. **Apply** — after the cutoff, score every in-service disk on a
   review grid (default every 14 days) using only information available
   at the review time.  A score above the action threshold flags the
   disk for proactive replacement.
3. **Score** — a flagged disk whose next *disk* failure occurs within
   the protection window counts as an **avoided failure** (the disk
   would have been swapped before it died); a flagged disk with no
   failure in the window is a **wasted replacement**.  Non-disk
   failures cannot be avoided by swapping the disk — the paper's whole
   point — and are reported separately as unavoidable.

The outcome quantifies the policy trade-off: precision of the pulls,
share of disk failures avoided, and the replacement overhead per
avoided failure.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.injector import InjectionResult
from repro.failures.types import FailureType
from repro.predict.features import FEATURE_NAMES, FeatureExtractor
from repro.predict.model import LogisticModel
from repro.predict.samples import Timeline, build_samples, observation_grid
from repro.units import SECONDS_PER_DAY, SECONDS_PER_MONTH


@dataclasses.dataclass(frozen=True)
class PolicyConfig:
    """Knobs of the proactive-replacement policy evaluation.

    Attributes:
        cutoff_months: train/apply split point within the study window.
        horizon_days: label horizon for training and the protection
            window for scoring flags.
        review_days: how often the policy reviews each disk.
        flag_budget_fraction: share of review points the policy may
            act on — the operational "we can pull at most so many
            disks" constraint.  The score threshold is set at the
            matching quantile, which also neutralizes the probability
            inflation from training-set negative subsampling.
        protection_days: window after a pull within which that disk's
            disk failure counts as avoided.
        grid_days: training-sample grid spacing.
        negative_ratio: training negatives kept per positive.
    """

    cutoff_months: float = 22.0
    horizon_days: float = 14.0
    review_days: float = 30.0
    flag_budget_fraction: float = 0.01
    protection_days: float = 30.0
    grid_days: float = 30.0
    negative_ratio: float = 5.0

    def __post_init__(self) -> None:
        if self.cutoff_months <= 0.0:
            raise AnalysisError("cutoff must be positive")
        if self.horizon_days <= 0.0 or self.review_days <= 0.0:
            raise AnalysisError("horizon and review period must be positive")
        if not 0.0 < self.flag_budget_fraction < 1.0:
            raise AnalysisError("flag budget must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class PolicyOutcome:
    """What the policy achieved on the held-out (post-cutoff) period.

    Attributes:
        flags: disks pulled proactively (first flag per disk counted).
        avoided_disk_failures: flags followed by that disk's disk
            failure within the protection window.
        wasted_replacements: flags with no such failure.
        disk_failures_after_cutoff: all disk failures in the apply
            period (the avoidable population).
        unavoidable_failures_after_cutoff: non-disk subsystem failures
            in the apply period (swapping disks cannot stop these).
        baseline_precision: precision a *random* policy of the same
            budget achieves (empirical, seeded) — the comparison that
            makes the absolute precision interpretable.
    """

    flags: int
    avoided_disk_failures: int
    wasted_replacements: int
    disk_failures_after_cutoff: int
    unavoidable_failures_after_cutoff: int
    baseline_precision: float

    @property
    def precision(self) -> float:
        """Share of pulls that actually preempted a disk failure."""
        return 0.0 if self.flags == 0 else self.avoided_disk_failures / self.flags

    @property
    def avoided_share(self) -> float:
        """Share of post-cutoff disk failures the policy preempted."""
        if self.disk_failures_after_cutoff == 0:
            return 0.0
        return self.avoided_disk_failures / self.disk_failures_after_cutoff

    @property
    def replacements_per_avoided(self) -> float:
        """Total pulls per avoided failure (cost of the policy)."""
        if self.avoided_disk_failures == 0:
            return float("inf")
        return self.flags / self.avoided_disk_failures

    @property
    def lift_over_random(self) -> float:
        """Precision relative to a random policy of the same budget."""
        if self.baseline_precision <= 0.0:
            return float("inf") if self.precision > 0.0 else 1.0
        return self.precision / self.baseline_precision

    def summary(self) -> str:
        """Human-readable outcome."""
        lift = self.lift_over_random
        return (
            "Proactive policy: %d pulls -> %d disk failures avoided "
            "(precision %.3f, %sx over random),\n  %d wasted; covered "
            "%.0f%% of the %d post-cutoff disk failures; %d non-disk\n"
            "  subsystem failures were unavoidable by disk replacement "
            "(the paper's point)."
            % (
                self.flags,
                self.avoided_disk_failures,
                self.precision,
                "inf" if lift == float("inf") else "%.0f" % lift,
                self.wasted_replacements,
                100.0 * self.avoided_share,
                self.disk_failures_after_cutoff,
                self.unavoidable_failures_after_cutoff,
            )
        )


def _train_before_cutoff(
    injection: InjectionResult,
    extractor: FeatureExtractor,
    cutoff: float,
    config: PolicyConfig,
) -> LogisticModel:
    """Fit the predictor on samples fully contained before the cutoff."""
    dataset = FailureDataset.from_injection(injection)
    samples = build_samples(
        dataset,
        horizon_days=config.horizon_days,
        grid_days=config.grid_days,
        negative_ratio=config.negative_ratio,
        seed=0,
    )
    horizon = config.horizon_days * SECONDS_PER_DAY
    keep = samples.times + horizon <= cutoff
    if np.count_nonzero(keep) < 50:
        raise AnalysisError("too few pre-cutoff samples; enlarge the fleet")
    labels = samples.labels[keep]
    if labels.min() == labels.max():
        raise AnalysisError("pre-cutoff samples contain a single class")
    return LogisticModel.fit(
        extractor.matrix(samples.disks[keep], samples.times[keep]),
        labels,
        feature_names=FEATURE_NAMES,
    )


def evaluate_proactive_policy(
    injection: InjectionResult,
    config: PolicyConfig = PolicyConfig(),
) -> Tuple[LogisticModel, PolicyOutcome]:
    """Train before the cutoff, apply the policy after it, score it.

    Returns:
        ``(trained model, outcome)``.
    """
    if not injection.n_recovered():
        raise AnalysisError("policy needs the component-error stream")
    fleet = injection.fleet
    duration = fleet.duration_seconds
    cutoff = config.cutoff_months * SECONDS_PER_MONTH
    if cutoff >= duration:
        raise AnalysisError("cutoff lies beyond the study window")

    extractor = FeatureExtractor(fleet, injection.recovered_batch)
    model = _train_before_cutoff(injection, extractor, cutoff, config)

    # Disk-failure times per disk (for scoring flags), all types for the
    # unavoidable tally.
    table = injection.to_table()
    disk = table.type_mask(FailureType.DISK)
    after = table.detect_time >= cutoff
    disk_after_cutoff = int(np.count_nonzero(disk & after))
    unavoidable_after_cutoff = int(np.count_nonzero(~disk & after))
    rows = fleet.disk_rows(table.disk_ids.values)[table.disk_codes]
    disk &= rows >= 0
    disk_failures = Timeline(rows[disk], table.detect_time[disk])

    # Review every in-service disk after the cutoff.
    review = config.review_days * SECONDS_PER_DAY
    disks, times = observation_grid(
        np.maximum(cutoff, fleet.disk_install) + review, fleet.service_end(duration), review
    )
    if not disks.size:
        raise AnalysisError("no post-cutoff review points")
    scores = model.predict_proba(extractor.matrix(disks, times))
    # Act on the top budget-fraction of review points.
    threshold = float(
        np.quantile(scores, 1.0 - config.flag_budget_fraction)
    )

    protection = config.protection_days * SECONDS_PER_DAY

    def preempted(points: np.ndarray) -> int:
        """Pulls at these review points followed by that disk's disk
        failure within the protection window."""
        flag_times = times[points]
        next_failure = disk_failures.next_after(disks[points], flag_times)
        return int(np.count_nonzero(next_failure <= flag_times + protection))

    # Each disk is pulled at its first review point at or above the
    # threshold.
    flagged = _first_per_disk(disks, np.flatnonzero(scores >= threshold))
    flags = int(flagged.size)
    avoided = preempted(flagged)
    wasted = flags - avoided

    # Random baseline of the same budget: pick the same number of
    # distinct disks at random review points (seeded).
    rng = np.random.default_rng(0)
    baseline_flags = max(1, flags)
    random_flagged = _first_per_disk(disks, rng.permutation(disks.size))[:baseline_flags]
    baseline_precision = preempted(random_flagged) / max(1, random_flagged.size)

    outcome = PolicyOutcome(
        flags=flags,
        avoided_disk_failures=avoided,
        wasted_replacements=wasted,
        disk_failures_after_cutoff=disk_after_cutoff,
        unavoidable_failures_after_cutoff=unavoidable_after_cutoff,
        baseline_precision=baseline_precision,
    )
    return model, outcome


def _first_per_disk(disks: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Of review ``points`` taken in the given order, each disk's first,
    in the order the disks first appear."""
    _, first = np.unique(disks[points], return_index=True)
    return points[np.sort(first)]
