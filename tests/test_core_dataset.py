"""Tests for the failure dataset container."""

import dataclasses

import numpy as np
import pytest

from repro.core.dataset import DEDUP_WINDOW_SECONDS, FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.topology.classes import SystemClass


class TestBasics:
    def test_events_sorted_on_construction(self, small_dataset):
        times = [e.detect_time for e in small_dataset.events]
        assert times == sorted(times)

    def test_counts_by_type_sums_to_total(self, small_dataset):
        counts = small_dataset.counts_by_type()
        assert sum(counts.values()) == len(small_dataset.events)

    def test_events_of_type(self, small_dataset):
        disk = small_dataset.events_of_type(FailureType.DISK)
        assert all(e.failure_type is FailureType.DISK for e in disk)
        assert len(disk) == small_dataset.counts_by_type()[FailureType.DISK]

    def test_system_of(self, small_dataset):
        event = small_dataset.events[0]
        assert small_dataset.system_of(event).system_id == event.system_id

    def test_summary_keys(self, small_dataset):
        summary = small_dataset.summary()
        assert summary["events"] == len(small_dataset.events)
        assert summary["exposure_disk_years"] > 0


class TestFiltering:
    def test_filter_systems_keeps_matching_events(self, small_dataset):
        nearline = small_dataset.filter_systems(
            small_dataset.fleet.where(system_class=SystemClass.NEARLINE)
        )
        assert all(e.system_class == "nearline" for e in nearline.events)
        assert all(
            s.system_class is SystemClass.NEARLINE for s in nearline.fleet.systems
        )

    def test_filter_preserves_duration(self, small_dataset):
        subset = small_dataset.filter_systems(
            np.ones(small_dataset.fleet.system_count, dtype=bool)
        )
        assert subset.duration_seconds == small_dataset.duration_seconds

    def test_excluding_disk_family(self, small_dataset):
        clean = small_dataset.excluding_disk_family("H")
        assert all(
            not s.primary_disk_model.startswith("H-") for s in clean.fleet.systems
        )
        assert all(not e.disk_model.startswith("H-") for e in clean.events)

    def test_excluding_removes_systems(self, small_dataset):
        clean = small_dataset.excluding_disk_family("H")
        assert clean.fleet.system_count < small_dataset.fleet.system_count

    def test_exclude_unused_family_is_noop(self, small_dataset):
        clean = small_dataset.excluding_disk_family("Z")
        assert clean.fleet.system_count == small_dataset.fleet.system_count


class TestDedup:
    def test_injector_output_already_unique(self, small_dataset):
        deduped = small_dataset.deduplicated()
        assert len(deduped.events) == len(small_dataset.events)

    def test_synthetic_duplicates_collapsed(self, small_dataset):
        event = small_dataset.events[0]
        dup = event.with_detect_time(event.detect_time + 10.0)
        noisy = FailureDataset(
            events=list(small_dataset.events) + [dup], fleet=small_dataset.fleet
        )
        assert len(noisy.deduplicated().events) == len(small_dataset.events)

    def test_far_apart_repeats_kept(self, small_dataset):
        event = small_dataset.events[0]
        later = dataclasses.replace(
            event,
            occur_time=event.occur_time + 2 * DEDUP_WINDOW_SECONDS,
            detect_time=event.detect_time + 2 * DEDUP_WINDOW_SECONDS,
        )
        noisy = FailureDataset(
            events=list(small_dataset.events) + [later], fleet=small_dataset.fleet
        )
        assert len(noisy.deduplicated().events) == len(small_dataset.events) + 1


class TestExposure:
    def test_total_exposure_matches_fleet(self, small_dataset):
        from repro.units import seconds_to_years

        assert small_dataset.exposure_years() == pytest.approx(
            seconds_to_years(small_dataset.fleet.disk_exposure_seconds())
        )

    def test_predicate_partition_sums_to_total(self, small_dataset):
        nearline_systems = small_dataset.fleet.where(system_class=SystemClass.NEARLINE)
        nearline = small_dataset.exposure_years(nearline_systems)
        rest = small_dataset.exposure_years(~nearline_systems)
        assert nearline + rest == pytest.approx(small_dataset.exposure_years())


class TestScopes:
    def test_events_by_shelf(self, small_dataset):
        grouped = small_dataset.events_by_scope("shelf")
        assert sum(len(v) for v in grouped.values()) == len(small_dataset.events)
        for shelf_id, events in grouped.items():
            assert all(e.shelf_id == shelf_id for e in events)

    def test_events_by_raid_group(self, small_dataset):
        grouped = small_dataset.events_by_scope("raid_group")
        for group_id, events in grouped.items():
            assert all(e.raid_group_id == group_id for e in events)

    def test_bad_scope(self, small_dataset):
        with pytest.raises(AnalysisError):
            small_dataset.events_by_scope("rack")
        with pytest.raises(AnalysisError):
            small_dataset.scope_population("rack")

    def test_scope_population_counts(self, small_dataset):
        shelves = small_dataset.scope_population("shelf")
        groups = small_dataset.scope_population("raid_group")
        assert len(shelves) == small_dataset.fleet.shelf_count
        assert len(groups) == small_dataset.fleet.raid_group_count
