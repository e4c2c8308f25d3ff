"""Paper-style significance statements for grouped rate comparisons.

Fig. 6 and Fig. 7 annotate their bars with confidence intervals and
T-test verdicts ("significant at the 99.5% confidence interval").  This
module packages one comparison — two groups of systems, one failure
type — into a result object carrying rates, intervals, and the test.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.afr import AFREstimate, dataset_afr
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.stats.tests import TestResult, poisson_rate_test


@dataclasses.dataclass(frozen=True)
class RateComparison:
    """Two groups' AFRs for one failure type, with a significance test.

    Attributes:
        description: what was compared (for reports).
        failure_type: the compared type (None = subsystem total).
        group_a / group_b: AFR estimates.
        test: Poisson rate test between the groups.
    """

    description: str
    failure_type: Optional[FailureType]
    group_a: AFREstimate
    group_b: AFREstimate
    test: TestResult

    @property
    def reduction(self) -> float:
        """Fractional reduction from group A to group B (A as baseline)."""
        if self.group_a.percent == 0.0:
            raise AnalysisError("baseline group has zero AFR")
        return 1.0 - self.group_b.percent / self.group_a.percent

    def significant_at(self, confidence: float) -> bool:
        """Whether the difference is significant at the given level."""
        return self.test.significant_at(confidence)

    def summary(self) -> str:
        """One-line paper-style statement."""
        label = self.failure_type.label if self.failure_type else "Subsystem"
        return (
            "%s: %s %.2f +/- %.2f%% vs %.2f +/- %.2f%% (p=%.2g)"
            % (
                self.description,
                label,
                self.group_a.percent,
                self.group_a.interval.half_width,
                self.group_b.percent,
                self.group_b.interval.half_width,
                self.test.p_value,
            )
        )


def compare_rates(
    dataset: FailureDataset,
    systems_a: np.ndarray,
    systems_b: np.ndarray,
    failure_type: Optional[FailureType] = None,
    description: str = "",
    confidence: float = 0.995,
) -> RateComparison:
    """Compare one failure type's AFR between two system groups.

    Args:
        dataset: events + fleet.
        systems_a / systems_b: the groups, as masks over the fleet's
            rows (``Fleet.where``; should be disjoint).
        failure_type: restrict the numerators (None = all types).
        description: free-text label for reports.
        confidence: CI level attached to each group's estimate.
    """
    a = dataset_afr(dataset, failure_type, systems_a, confidence)
    b = dataset_afr(dataset, failure_type, systems_b, confidence)
    test = poisson_rate_test(a.count, a.exposure_years, b.count, b.exposure_years)
    return RateComparison(
        description=description,
        failure_type=failure_type,
        group_a=a,
        group_b=b,
        test=test,
    )
