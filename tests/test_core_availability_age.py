"""Tests for availability estimation and disk-age analysis."""

import pytest

from repro.core.age import disk_afr_by_age, format_age_table, infant_elevation
from repro.core.availability import (
    DEFAULT_OUTAGE_SECONDS,
    availability_by_class,
    format_availability,
    _merge_intervals,
)
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType


class TestMergeIntervals:
    def test_disjoint(self):
        assert _merge_intervals([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)

    def test_overlapping(self):
        assert _merge_intervals([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)

    def test_nested(self):
        assert _merge_intervals([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)

    def test_empty(self):
        assert _merge_intervals([]) == 0.0

    def test_unsorted_input(self):
        assert _merge_intervals([(5.0, 6.0), (0.0, 1.0)]) == pytest.approx(2.0)


class TestAvailability:
    def test_reports_per_class(self, midsize_dataset):
        reports = availability_by_class(midsize_dataset)
        assert [r.label for r in reports] == [
            "Nearline", "Low-end", "Mid-range", "High-end",
        ]

    def test_availability_high_but_not_perfect(self, midsize_dataset):
        for report in availability_by_class(midsize_dataset):
            assert 0.99 < report.availability < 1.0
            assert report.nines > 2.0

    def test_no_failures_means_perfect(self, midsize_dataset):
        empty = FailureDataset(events=[], fleet=midsize_dataset.fleet)
        for report in availability_by_class(empty):
            assert report.availability == 1.0
            assert report.nines == float("inf")

    def test_longer_outages_lower_availability(self, midsize_dataset):
        short = availability_by_class(midsize_dataset)
        doubled = {ft: 2 * s for ft, s in DEFAULT_OUTAGE_SECONDS.items()}
        long = availability_by_class(midsize_dataset, doubled)
        for a, b in zip(short, long):
            assert b.availability <= a.availability

    def test_zero_outage_type_ignored(self, midsize_dataset):
        durations = dict(DEFAULT_OUTAGE_SECONDS)
        durations[FailureType.PERFORMANCE] = 0.0
        reports = availability_by_class(midsize_dataset, durations)
        assert all(0.0 < r.availability <= 1.0 for r in reports)

    def test_negative_duration_rejected(self, midsize_dataset):
        bad = dict(DEFAULT_OUTAGE_SECONDS)
        bad[FailureType.DISK] = -1.0
        with pytest.raises(AnalysisError):
            availability_by_class(midsize_dataset, bad)

    def test_downtime_hours_positive(self, midsize_dataset):
        for report in availability_by_class(midsize_dataset):
            assert report.downtime_hours_per_system_year > 0.0

    def test_format(self, midsize_dataset):
        text = format_availability(availability_by_class(midsize_dataset))
        assert "Nines" in text
        assert "Nearline" in text


class TestDiskAge:
    def test_buckets_cover_exposure(self, midsize_dataset):
        buckets = disk_afr_by_age(midsize_dataset)
        total = sum(bucket.estimate.exposure_years for bucket in buckets)
        assert total == pytest.approx(midsize_dataset.exposure_years(), rel=1e-6)

    def test_counts_cover_disk_failures(self, midsize_dataset):
        buckets = disk_afr_by_age(midsize_dataset)
        total = sum(bucket.estimate.count for bucket in buckets)
        assert total == midsize_dataset.counts_by_type()[FailureType.DISK]

    def test_default_fleet_roughly_flat(self, midsize_dataset):
        elevation = infant_elevation(disk_afr_by_age(midsize_dataset))
        assert 0.6 <= elevation <= 1.8

    def test_infant_mortality_knob_shows_up(self):
        from repro.failures.injector import InjectorConfig
        from repro.fleet.builder import build_fleet
        from repro.fleet.spec import FleetSpec
        from repro.rng import RandomSource
        from repro.simulate.vector.engine import VectorFailureInjector

        fleet = build_fleet(FleetSpec.paper_default(scale=0.01), RandomSource(1))
        injection = VectorFailureInjector(
            InjectorConfig(infant_mortality_factor=6.0)
        ).inject(fleet, RandomSource(1))
        buckets = disk_afr_by_age(FailureDataset.from_injection(injection))
        assert infant_elevation(buckets) > 3.0

    def test_factor_one_is_default_behavior(self):
        from repro.failures.injector import InjectorConfig
        from repro.fleet.builder import build_fleet
        from repro.fleet.spec import FleetSpec
        from repro.rng import RandomSource
        from repro.simulate.vector.engine import VectorFailureInjector

        spec = FleetSpec.paper_default(scale=0.003)
        a = VectorFailureInjector(InjectorConfig(infant_mortality_factor=1.0)).inject(
            build_fleet(spec, RandomSource(3)), RandomSource(3)
        )
        b = VectorFailureInjector().inject(
            build_fleet(spec, RandomSource(3)), RandomSource(3)
        )
        assert [e.detect_time for e in a.events] == [
            e.detect_time for e in b.events
        ]

    def test_bad_edges_rejected(self, midsize_dataset):
        with pytest.raises(AnalysisError):
            disk_afr_by_age(midsize_dataset, edges_days=[10.0, 10.0])
        with pytest.raises(AnalysisError):
            disk_afr_by_age(midsize_dataset, edges_days=[100.0])

    def test_format(self, midsize_dataset):
        text = format_age_table(disk_afr_by_age(midsize_dataset))
        assert "Disk age" in text
        assert "AFR" in text
