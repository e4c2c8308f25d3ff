"""Failure self-correlation analysis (Fig. 10, Finding 11).

The paper's method (§5.2): if failures were independent with arbitrary
time-varying intensity ``f(t)``, the probability of seeing exactly two
failures in a window would satisfy ``P(2) = P(1)^2 / 2`` (equation 3),
and in general ``P(N) = P(1)^N / N!`` (equation 4).  The analysis
computes empirical P(1) and P(2) over all shelves (or RAID groups) of
systems fielded at least the window length, derives the theoretical
P(2) from the empirical P(1), and tests whether the empirical P(2)
exceeds it — it does, by 6x for disk failures and 10-25x for the other
types.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import (
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.stats.intervals import ConfidenceInterval, wilson_interval
from repro.stats.tests import TestResult, poisson_rate_test
from repro.units import SECONDS_PER_YEAR

from scipy import stats as scipy_stats


def theoretical_p_n(p1: float, n: int) -> float:
    """Equation 4: ``P(N) = P(1)^N / N!`` under independence."""
    if not 0.0 <= p1 <= 1.0:
        raise AnalysisError("P(1) must be a probability")
    if n < 0:
        raise AnalysisError("N must be non-negative")
    return p1**n / math.factorial(n)


@dataclasses.dataclass(frozen=True)
class CorrelationResult:
    """Empirical vs theoretical failure-count probabilities for one type.

    Attributes:
        failure_type: the analyzed type.
        scope: ``"shelf"`` or ``"raid_group"``.
        window_years: the window T (the paper uses 1 year).
        n_units: scope units eligible (fielded >= T).
        count_exactly_one / count_exactly_two: units with exactly 1 / 2
            failures of the type inside their window.
        p1 / p2_empirical: the corresponding fractions.
        p2_theoretical: ``p1^2 / 2``.
        p2_interval: Wilson CI on the empirical P(2).
        test: z-test of the empirical two-failure count against the
            independence model's expectation.
    """

    failure_type: FailureType
    scope: str
    window_years: float
    n_units: int
    count_exactly_one: int
    count_exactly_two: int
    p1: float
    p2_empirical: float
    p2_theoretical: float
    p2_interval: ConfidenceInterval
    test: TestResult

    @property
    def inflation(self) -> float:
        """Empirical / theoretical P(2) — Finding 11's 6x / 10-25x."""
        if self.p2_theoretical == 0.0:
            return float("inf") if self.p2_empirical > 0.0 else 1.0
        return self.p2_empirical / self.p2_theoretical

    @property
    def correlated(self) -> bool:
        """Whether independence is rejected at 99.5% with excess P(2)."""
        return (
            self.p2_empirical > self.p2_theoretical
            and self.test.significant_at(0.995)
        )


def correlation_for(
    dataset: FailureDataset,
    failure_type: FailureType,
    scope: str = "shelf",
    window_years: float = 1.0,
) -> CorrelationResult:
    """Empirical vs theoretical P(2) for one failure type and scope.

    Only scope units belonging to systems fielded at least
    ``window_years`` are counted (§5.2.2), and each unit's window starts
    at its system's deployment.
    """
    if window_years <= 0.0:
        raise AnalysisError("window must be positive")
    window = window_years * SECONDS_PER_YEAR
    with obs.span("core.correlation", scope=scope, type=failure_type.value):
        n_units, unit_counts = _unit_counts(dataset, failure_type, scope, window)
        exactly = {
            1: int(np.count_nonzero(unit_counts == 1)),
            2: int(np.count_nonzero(unit_counts == 2)),
        }
    if n_units == 0:
        raise AnalysisError("no scope units fielded >= %.2f years" % window_years)

    p1 = exactly[1] / n_units
    p2 = exactly[2] / n_units
    p2_theory = theoretical_p_n(p1, 2)
    test = _binomial_z_test(exactly[2], n_units, p2_theory)
    return CorrelationResult(
        failure_type=failure_type,
        scope=scope,
        window_years=window_years,
        n_units=n_units,
        count_exactly_one=exactly[1],
        count_exactly_two=exactly[2],
        p1=p1,
        p2_empirical=p2,
        p2_theoretical=p2_theory,
        p2_interval=wilson_interval(exactly[2], n_units, confidence=0.995),
        test=test,
    )


def _unit_counts(
    dataset: FailureDataset,
    failure_type: Optional[FailureType],
    scope: str,
    window: float,
) -> Tuple[int, np.ndarray]:
    """Eligible-unit total and per-unit in-window event counts.

    ``n_units`` comes from the fleet topology (units that never failed
    still count); the counts array is indexed by the deduplicated
    table's scope codes, so units absent from it simply have zero
    events.
    """
    table = dataset.deduplicated().table
    codes, names = table.scope_codes(scope)

    # Eligibility and unit counts straight from the fleet's arrays.
    fleet = dataset.fleet
    fielded = ~(dataset.duration_seconds - fleet.deploy_time < window)
    unit_start = (
        fleet.system_shelf_start if scope == "shelf" else fleet.system_group_start
    )
    n_units = int(np.diff(unit_start)[fielded].sum())

    rows = np.fromiter(
        map(fleet.system_index, table.system_ids.values),
        dtype=np.int64,
        count=len(table.system_ids.values),
    )
    deploys = fleet.deploy_time[rows]
    eligible = fielded[rows]

    detect = table.detect_time
    starts = deploys[table.system_codes]
    mask = (
        eligible[table.system_codes]
        & (detect >= starts)
        & (detect < starts + window)
    )
    if failure_type is not None:
        mask &= table.type_mask(failure_type)
    unit_counts = np.bincount(
        codes[mask].astype(np.int64), minlength=len(names)
    )
    return n_units, unit_counts


def correlation_by_type(
    dataset: FailureDataset,
    scope: str = "shelf",
    window_years: float = 1.0,
) -> List[CorrelationResult]:
    """One Fig. 10 panel: results for all four failure types.

    Extended types (operator error) get a row only when the dataset
    actually holds such events, keeping the default panel four-rowed.
    """
    results: List[CorrelationResult] = []
    for failure_type in FAILURE_TYPE_ORDER:
        results.append(
            correlation_for(dataset, failure_type, scope, window_years)
        )
    present = dataset.counts_by_type()
    for failure_type in EXTENDED_FAILURE_TYPES:
        if present.get(failure_type, 0):
            results.append(
                correlation_for(dataset, failure_type, scope, window_years)
            )
    return results


def _binomial_z_test(successes: int, trials: int, p_null: float) -> TestResult:
    """Two-sided z-test of a binomial count against a null probability.

    Falls back to an exact binomial tail when the normal approximation
    is shaky (expected count < 5).
    """
    expected = trials * p_null
    if p_null <= 0.0:
        # Under the null nothing should happen; any success refutes it.
        p_value = 0.0 if successes > 0 else 1.0
        return TestResult(
            statistic=float("inf") if successes else 0.0,
            p_value=p_value,
            dof=0.0,
            description="degenerate null (P2_theory = 0)",
        )
    if expected < 5.0 or trials * (1.0 - p_null) < 5.0:
        tail = float(scipy_stats.binom.sf(successes - 1, trials, p_null))
        p_value = min(1.0, 2.0 * min(tail, 1.0 - tail + 1e-300))
        statistic = (successes - expected) / math.sqrt(
            max(expected * (1.0 - p_null), 1e-12)
        )
        return TestResult(
            statistic=statistic,
            p_value=p_value,
            dof=0.0,
            description="exact binomial test vs p0=%.3g" % p_null,
        )
    statistic = (successes - expected) / math.sqrt(expected * (1.0 - p_null))
    p_value = 2.0 * float(scipy_stats.norm.sf(abs(statistic)))
    return TestResult(
        statistic=statistic,
        p_value=p_value,
        dof=0.0,
        description="binomial z-test vs p0=%.3g" % p_null,
    )


def count_distribution(
    dataset: FailureDataset,
    failure_type: Optional[FailureType],
    scope: str = "shelf",
    window_years: float = 1.0,
    max_n: int = 5,
) -> Dict[int, int]:
    """Histogram of per-unit failure counts in the window (0..max_n+).

    Useful for inspecting the full P(N) profile beyond P(1) and P(2).
    """
    window = window_years * SECONDS_PER_YEAR
    n_units, unit_counts = _unit_counts(dataset, failure_type, scope, window)
    nonzero = unit_counts[unit_counts > 0]
    binned = np.bincount(
        np.minimum(nonzero, max_n).astype(np.int64), minlength=max_n + 1
    )
    histogram = {0: n_units - int(nonzero.size)}
    for n in range(1, max_n + 1):
        histogram[n] = int(binned[n])
    return histogram
