"""Time-between-failures analysis (Fig. 9, Findings 8-10).

For every shelf (or RAID group) the detection times of its failures are
sorted and consecutive gaps collected; gaps from all shelves are pooled
into one empirical CDF per failure type (plus one for all types
together).  Burstiness is summarized as the fraction of gaps under
10,000 seconds — the number the paper reads off the CDFs (48% per shelf,
30% per RAID group) — and the disk-failure gaps are fitted against the
exponential / gamma / Weibull candidates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.columns import first_occurrence_ranks
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import ALL_FAILURE_TYPES, FailureType
from repro.stats.ecdf import ECDF
from repro.stats.ks import ks_test
from repro.stats.mle import FitResult, fit_all
from repro.stats.tests import TestResult, chi_square_gof
from repro.units import BURST_GAP_SECONDS


def gaps_by_scope(
    dataset: FailureDataset,
    scope: str = "shelf",
    failure_type: Optional[FailureType] = None,
) -> np.ndarray:
    """Pooled consecutive inter-failure gaps within each scope unit.

    Duplicate reports are collapsed first (§5.1); gaps are measured on
    detection times, as in the paper (occurrence times are unknowable
    from logs — hence the CDFs "do not start from the zero point").

    Args:
        dataset: events + fleet.
        scope: ``"shelf"`` or ``"raid_group"``.
        failure_type: one type, or None for overall subsystem failures.

    Returns:
        Array of gaps in seconds (empty if no scope unit saw 2+ events).
    """
    # Gaps are consecutive diffs inside (scope unit) segments of the
    # detect-time column; sorting by (first-occurrence rank, detect)
    # pools units in order of their first failure, which fixes the
    # order downstream float reductions sum in.
    with obs.span("core.gaps", scope=scope):
        table = dataset.deduplicated().table
        detect = table.detect_time
        codes, _ = table.scope_codes(scope)
        if failure_type is not None:
            mask = table.type_mask(failure_type)
            detect = detect[mask]
            codes = codes[mask]
        if detect.size < 2:
            return np.zeros(0, dtype=float)
        ranks = first_occurrence_ranks(codes)
        order = np.lexsort((detect, ranks))
        times = detect[order]
        units = ranks[order]
        return (times[1:] - times[:-1])[units[1:] == units[:-1]]


@dataclasses.dataclass
class GapAnalysis:
    """Summary of one pooled gap sample.

    Attributes:
        scope: ``"shelf"`` or ``"raid_group"``.
        failure_type: the type analyzed (None = overall).
        gaps: the pooled gaps (seconds).
        ecdf: empirical CDF over the gaps.
        burst_fraction: share of gaps below 10,000 s.
        fits: MLE fits (best first); empty when the sample is too small.
        gof: chi-square GoF of the best fit; None when not computable.
        ks: Kolmogorov-Smirnov GoF of the best fit; None when not
            computable (conservative, since parameters were fitted).
    """

    scope: str
    failure_type: Optional[FailureType]
    gaps: np.ndarray
    ecdf: ECDF
    burst_fraction: float
    fits: List[FitResult]
    gof: Optional[TestResult]
    ks: Optional[TestResult] = None

    @property
    def label(self) -> str:
        """Series label as in Fig. 9's legend."""
        if self.failure_type is None:
            return "Overall Storage Subsystem Failure"
        return self.failure_type.label

    @property
    def best_fit(self) -> Optional[FitResult]:
        """The highest-likelihood fitted distribution."""
        return self.fits[0] if self.fits else None


def analyze_gaps(
    dataset: FailureDataset,
    scope: str = "shelf",
    failure_type: Optional[FailureType] = None,
    burst_threshold: float = BURST_GAP_SECONDS,
    fit: bool = True,
) -> GapAnalysis:
    """Full gap analysis for one scope + failure type."""
    gaps = gaps_by_scope(dataset, scope, failure_type)
    if gaps.size == 0:
        raise AnalysisError(
            "no repeated failures in any %s for %s"
            % (scope, failure_type.label if failure_type else "overall")
        )
    # Guard against zero gaps (two events detected in the same second in
    # log-parsed data); the distributions require positive support.
    positive = gaps[gaps > 0.0]
    if positive.size == 0:
        raise AnalysisError("all gaps are zero-length; cannot analyze")
    ecdf = ECDF(positive)
    fits: List[FitResult] = []
    gof: Optional[TestResult] = None
    ks: Optional[TestResult] = None
    if fit and positive.size >= 15:
        fits = fit_all(positive)
        best = fits[0]
        gof = chi_square_gof(
            positive,
            best.cdf,
            n_bins=10,
            n_fitted_params=len(best.params),
        )
        ks = ks_test(positive, best.cdf, n_fitted_params=len(best.params))
    return GapAnalysis(
        scope=scope,
        failure_type=failure_type,
        gaps=positive,
        ecdf=ecdf,
        burst_fraction=ecdf.fraction_below(burst_threshold),
        fits=fits,
        gof=gof,
        ks=ks,
    )


def figure9_series(
    dataset: FailureDataset, scope: str
) -> Dict[str, GapAnalysis]:
    """All of one Fig. 9 panel: per-type series plus the overall series.

    Series with fewer than 2 pooled gaps are omitted (small fleets may
    not repeat rare types within a shelf).
    """
    series: Dict[str, GapAnalysis] = {}
    # Extended types (operator error) ride along here: analyze_gaps
    # raises AnalysisError for types with no events, so the paper-default
    # export stays four-series unless an operator hazard is configured.
    for failure_type in ALL_FAILURE_TYPES:
        try:
            analysis = analyze_gaps(dataset, scope, failure_type)
        except AnalysisError:
            continue
        series[analysis.label] = analysis
    overall = analyze_gaps(dataset, scope, None)
    series[overall.label] = overall
    return series


def cdf_grid(
    analyses: Sequence[GapAnalysis],
    points: Optional[Sequence[float]] = None,
) -> List[Dict[str, float]]:
    """Tabulate several gap CDFs on a shared log-spaced grid.

    Returns one dict per grid point: ``{"t": ..., <label>: F(t), ...}`` —
    the rows a plotting script or the benchmark harness prints.
    """
    if points is None:
        points = np.geomspace(1.0, 1e8, 33)
    rows: List[Dict[str, float]] = []
    for t in points:
        row: Dict[str, float] = {"t": float(t)}
        for analysis in analyses:
            row[analysis.label] = analysis.ecdf(float(t))
        rows.append(row)
    return rows
