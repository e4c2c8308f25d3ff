"""Overdispersion statistics: the index-of-dispersion view of Finding 11.

For a Poisson process the per-unit failure counts have variance equal to
their mean (index of dispersion = 1).  Correlated, bursty failures are
*overdispersed*: variance exceeds the mean.  The index and its
chi-square test complement the paper's P(2) analysis — same phenomenon,
different statistic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import stats as scipy_stats

from repro.errors import AnalysisError
from repro.stats.tests import TestResult


def index_of_dispersion(counts: Sequence[int]) -> float:
    """Variance-to-mean ratio of per-unit event counts.

    1 = Poisson; > 1 = overdispersed (clustered); < 1 = underdispersed.
    """
    values = np.asarray(list(counts), dtype=float)
    if values.size < 2:
        raise AnalysisError("need at least 2 units")
    mean = values.mean()
    if mean == 0.0:
        raise AnalysisError("no events in any unit")
    return float(values.var(ddof=1) / mean)


def dispersion_test(counts: Sequence[int]) -> TestResult:
    """Chi-square test of Poisson dispersion.

    Under the Poisson null, ``(n - 1) * variance / mean`` is chi-square
    with ``n - 1`` degrees of freedom; the returned p-value is
    two-sided (over- or under-dispersion both reject).
    """
    values = np.asarray(list(counts), dtype=float)
    if values.size < 10:
        raise AnalysisError("need at least 10 units for the dispersion test")
    mean = values.mean()
    if mean == 0.0:
        raise AnalysisError("no events in any unit")
    n = values.size
    statistic = (n - 1) * values.var(ddof=1) / mean
    upper = float(scipy_stats.chi2.sf(statistic, n - 1))
    lower = float(scipy_stats.chi2.cdf(statistic, n - 1))
    p_value = min(1.0, 2.0 * min(upper, lower))
    return TestResult(
        statistic=float(statistic),
        p_value=p_value,
        dof=float(n - 1),
        description="Poisson dispersion test over %d units "
        "(index of dispersion %.2f)" % (n, values.var(ddof=1) / mean),
    )


def per_unit_counts(dataset, scope: str = "shelf", failure_type=None) -> list:
    """Failure counts per scope unit (including zero-count units), in
    fleet order."""
    table = dataset.deduplicated().table
    codes, ids = table.scope_codes(scope)
    if failure_type is not None:
        codes = codes[table.type_mask(failure_type)]
    fleet = dataset.fleet
    if scope == "shelf":
        rows, units = fleet.shelf_rows(ids.values), fleet.shelf_count
    else:
        rows, units = fleet.group_rows(ids.values), fleet.raid_group_count
    rows = rows[codes]
    return np.bincount(rows[rows >= 0], minlength=units).tolist()
