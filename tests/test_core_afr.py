"""Tests for AFR estimation and breakdowns."""

import pytest

from repro.core.afr import afr_estimate, afr_stack, dataset_afr, stack_total_percent
from repro.core.breakdown import (
    afr_by_class,
    afr_by_disk_model,
    afr_by_path_config,
    afr_by_shelf_model,
    disk_failure_share_range,
    row_by_label,
)
from repro.errors import AnalysisError
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType
from repro.topology.classes import SystemClass


class TestAfrEstimate:
    def test_percent(self):
        estimate = afr_estimate(34, 1000.0)
        assert estimate.percent == pytest.approx(3.4)

    def test_interval_attached(self):
        estimate = afr_estimate(34, 1000.0, confidence=0.995)
        assert estimate.interval.contains(estimate.percent)
        assert estimate.interval.confidence == 0.995

    def test_zero_exposure_rejected(self):
        with pytest.raises(AnalysisError):
            afr_estimate(1, 0.0)

    def test_str(self):
        assert "events" in str(afr_estimate(10, 100.0))


class TestDatasetAfr:
    def test_total_afr_consistent(self, small_dataset):
        total = dataset_afr(small_dataset)
        assert total.count == len(small_dataset.events)
        assert total.percent == pytest.approx(
            100.0 * total.count / small_dataset.exposure_years()
        )

    def test_per_type_sums_to_total(self, small_dataset):
        stack = afr_stack(small_dataset)
        assert sum(estimate.count for estimate in stack.values()) == len(small_dataset)
        assert stack_total_percent(stack) == pytest.approx(
            dataset_afr(small_dataset).percent
        )

    def test_predicate_restricts_both_sides(self, small_dataset):
        nearline = dataset_afr(
            small_dataset,
            systems=small_dataset.fleet.where(system_class=SystemClass.NEARLINE),
        )
        assert nearline.count == sum(
            1 for e in small_dataset.events if e.system_class == "nearline"
        )
        assert nearline.exposure_years < small_dataset.exposure_years()


class TestBreakdowns:
    def test_by_class_rows(self, small_dataset):
        rows = afr_by_class(small_dataset)
        assert [row.label for row in rows] == [
            "Nearline", "Low-end", "Mid-range", "High-end",
        ]
        for row in rows:
            assert row.systems > 0
            assert row.total_percent > 0

    def test_by_class_shares_sum_to_one(self, small_dataset):
        for row in afr_by_class(small_dataset):
            assert sum(row.share(ft) for ft in FAILURE_TYPE_ORDER) == pytest.approx(1.0)

    def test_exclusion_changes_rows(self, small_dataset):
        with_h = afr_by_class(small_dataset, exclude_problematic_family=False)
        without_h = afr_by_class(small_dataset, exclude_problematic_family=True)
        assert sum(r.systems for r in without_h) < sum(r.systems for r in with_h)

    def test_by_disk_model_panel(self, small_dataset):
        rows = afr_by_disk_model(small_dataset, SystemClass.NEARLINE, "C")
        labels = {row.label for row in rows}
        assert labels <= {"Disk I-1", "Disk I-2", "Disk J-1", "Disk J-2", "Disk K-1"}
        assert rows

    def test_by_shelf_model_panel(self, small_dataset):
        rows = afr_by_shelf_model(small_dataset, SystemClass.LOW_END, "A-2")
        assert {row.label for row in rows} <= {
            "Shelf Enclosure Model A", "Shelf Enclosure Model B",
        }

    def test_by_path_config(self, midsize_dataset):
        rows = afr_by_path_config(midsize_dataset, SystemClass.MID_RANGE)
        assert row_by_label(rows, "Single Path") is not None
        assert row_by_label(rows, "Dual Paths") is not None

    def test_path_config_absent_for_lowend(self, small_dataset):
        rows = afr_by_path_config(small_dataset, SystemClass.LOW_END)
        assert row_by_label(rows, "Dual Paths") is None

    def test_row_by_label_missing(self, small_dataset):
        assert row_by_label(afr_by_class(small_dataset), "Petabyte") is None

    def test_disk_share_range(self, small_dataset):
        rows = afr_by_class(small_dataset, exclude_problematic_family=True)
        share = disk_failure_share_range(rows)
        assert 0.0 < share["min"] <= share["max"] < 1.0

    def test_empty_rows_share_range(self):
        assert disk_failure_share_range([]) == {"min": 0.0, "max": 0.0}
