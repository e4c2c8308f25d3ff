"""Tests for the failure-correlation analysis."""

import math

import pytest

from repro.core.correlation import (
    correlation_by_type,
    correlation_for,
    count_distribution,
    theoretical_p_n,
)
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType


class TestTheory:
    def test_equation_3(self):
        # P(2) = P(1)^2 / 2.
        assert theoretical_p_n(0.1, 2) == pytest.approx(0.005)

    def test_equation_4_general(self):
        p1 = 0.2
        for n in range(5):
            assert theoretical_p_n(p1, n) == pytest.approx(
                p1**n / math.factorial(n)
            )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            theoretical_p_n(1.2, 2)
        with pytest.raises(AnalysisError):
            theoretical_p_n(0.5, -1)


class TestCorrelationFor:
    def test_result_fields(self, midsize_dataset):
        result = correlation_for(midsize_dataset, FailureType.DISK, "shelf")
        assert result.n_units > 0
        assert result.p1 == pytest.approx(result.count_exactly_one / result.n_units)
        assert result.p2_empirical == pytest.approx(
            result.count_exactly_two / result.n_units
        )
        assert result.p2_theoretical == pytest.approx(result.p1**2 / 2.0)

    def test_correlated_fleet_inflates_p2(self, midsize_dataset):
        for result in correlation_by_type(midsize_dataset, "shelf"):
            assert result.p2_empirical > result.p2_theoretical

    def test_independent_fleet_does_not_inflate_much(self, independent_dataset):
        results = correlation_by_type(independent_dataset, "shelf")
        assert all(result.inflation < 4.0 for result in results)

    def test_inflation_definition(self, midsize_dataset):
        result = correlation_for(midsize_dataset, FailureType.DISK, "shelf")
        assert result.inflation == pytest.approx(
            result.p2_empirical / result.p2_theoretical
        )

    def test_only_long_fielded_units_counted(self, midsize_dataset):
        # A 10-year window excludes every system (the study is 44 months).
        with pytest.raises(AnalysisError):
            correlation_for(
                midsize_dataset, FailureType.DISK, "shelf", window_years=10.0
            )

    def test_window_validation(self, midsize_dataset):
        with pytest.raises(AnalysisError):
            correlation_for(midsize_dataset, FailureType.DISK, "shelf", 0.0)

    def test_results_for_all_types(self, midsize_dataset):
        for scope in ("shelf", "raid_group"):
            results = correlation_by_type(midsize_dataset, scope)
            assert [r.failure_type for r in results] == list(FAILURE_TYPE_ORDER)

    def test_interval_brackets_empirical(self, midsize_dataset):
        for result in correlation_by_type(midsize_dataset, "shelf"):
            assert result.p2_interval.contains(result.p2_empirical)

    def test_empty_dataset_gives_zero_p(self, midsize_dataset):
        empty = FailureDataset(events=[], fleet=midsize_dataset.fleet)
        result = correlation_for(empty, FailureType.DISK, "shelf")
        assert result.p1 == 0.0
        assert result.p2_empirical == 0.0
        assert not result.correlated


class TestCountDistribution:
    def test_histogram_covers_population(self, midsize_dataset):
        histogram = count_distribution(midsize_dataset, FailureType.DISK, "shelf")
        eligible = sum(histogram.values())
        assert eligible > 0
        result = correlation_for(midsize_dataset, FailureType.DISK, "shelf")
        assert eligible == result.n_units

    def test_histogram_matches_p1_p2(self, midsize_dataset):
        histogram = count_distribution(midsize_dataset, FailureType.DISK, "shelf")
        result = correlation_for(midsize_dataset, FailureType.DISK, "shelf")
        assert histogram[1] == result.count_exactly_one
        assert histogram[2] == result.count_exactly_two

    def test_overall_histogram(self, midsize_dataset):
        histogram = count_distribution(midsize_dataset, None, "shelf", max_n=3)
        assert set(histogram) == {0, 1, 2, 3}
        assert histogram[0] > 0  # most shelves never fail in a year
