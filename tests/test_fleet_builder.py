"""Tests for fleet construction."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.fleet import catalog
from repro.fleet.builder import build_fleet, system_id_for
from repro.fleet.fleet import Fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.topology.classes import SystemClass
from repro.topology.layout import LayoutPolicy


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(5))


class TestBuildFleet:
    def test_deterministic(self):
        spec = FleetSpec.paper_default(scale=0.001)
        a = build_fleet(spec, RandomSource(5))
        b = build_fleet(spec, RandomSource(5))
        assert [s.system_id for s in a.systems] == [s.system_id for s in b.systems]
        assert [s.primary_disk_model for s in a.systems] == [
            s.primary_disk_model for s in b.systems
        ]
        assert [s.deploy_time for s in a.systems] == [
            s.deploy_time for s in b.systems
        ]

    def test_selection_subset_is_byte_identical(self):
        # A selected system must come out exactly as in the full build:
        # this is what lets a shard reproduce its slice of the fleet.
        spec = FleetSpec.paper_default(scale=0.002)
        full = build_fleet(spec, RandomSource(5))
        selection = {
            system_class: tuple(
                index
                for index in range(spec.scaled_systems(system_class))
                if index % 3 == 1
            )
            for system_class in SystemClass
        }
        subset = build_fleet(spec, RandomSource(5), selection=selection)
        expected_ids = {
            system_id_for(system_class, index)
            for system_class, indices in selection.items()
            for index in indices
        }
        assert {s.system_id for s in subset.systems} == expected_ids
        for system in subset.systems:
            twin = full.system(system.system_id)
            assert system.primary_disk_model == twin.primary_disk_model
            assert system.shelf_model == twin.shelf_model
            assert system.dual_path == twin.dual_path
            assert system.deploy_time == twin.deploy_time
            assert len(system.shelves) == len(twin.shelves)
            assert [d.serial for d in system.iter_disks()] == [
                d.serial for d in twin.iter_disks()
            ]

    def test_selection_out_of_range_rejected(self):
        spec = FleetSpec.paper_default(scale=0.002)
        count = spec.scaled_systems(SystemClass.NEARLINE)
        with pytest.raises(ValueError, match="out of range"):
            build_fleet(
                spec, RandomSource(5), selection={SystemClass.NEARLINE: [count]}
            )

    def test_seed_changes_fleet(self):
        spec = FleetSpec.paper_default(scale=0.001)
        a = build_fleet(spec, RandomSource(5))
        b = build_fleet(spec, RandomSource(6))
        assert [s.primary_disk_model for s in a.systems] != [
            s.primary_disk_model for s in b.systems
        ]

    def test_class_populations(self, fleet):
        spec = FleetSpec.paper_default(scale=0.002)
        for system_class in SystemClass:
            assert np.count_nonzero(
                fleet.where(system_class=system_class)
            ) == spec.scaled_systems(system_class)

    def test_every_bay_populated(self, fleet):
        for system in fleet.systems:
            for slot in system.iter_slots():
                assert slot.current_disk is not None
                assert slot.current_disk.install_time == system.deploy_time

    def test_disk_models_come_from_catalog(self, fleet):
        for system in fleet.systems:
            allowed = {
                name
                for name, _w in catalog.disk_models_for(
                    system.system_class, system.shelf_model
                )
            }
            assert system.primary_disk_model in allowed

    def test_shelf_models_come_from_catalog(self, fleet):
        for system in fleet.systems:
            mix = catalog.shelf_models_for_class(system.system_class)
            assert system.shelf_model in mix

    def test_dual_path_only_where_supported(self, fleet):
        for system in fleet.systems:
            if system.dual_path:
                assert system.system_class.supports_dual_path

    def test_some_dual_path_systems_exist(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.01), RandomSource(5))
        dual = [s for s in fleet.systems if s.dual_path]
        mid_high = [
            s for s in fleet.systems if s.system_class.supports_dual_path
        ]
        assert 0.15 <= len(dual) / len(mid_high) <= 0.55  # about a third

    def test_deploy_times_within_spread(self, fleet):
        spec = FleetSpec.paper_default(scale=0.002)
        for system in fleet.systems:
            assert 0.0 <= system.deploy_time <= spec.deployment_spread_seconds

    def test_raid_groups_cover_all_slots(self, fleet):
        for system in fleet.systems:
            group_slots = {
                key for group in system.raid_groups for key in group.slot_keys
            }
            all_slots = {slot.slot_key for slot in system.iter_slots()}
            assert group_slots == all_slots

    def test_spanning_layout_by_default(self, fleet):
        spanning = [
            group
            for system in fleet.systems
            for group in system.raid_groups
            if group.span > 1
        ]
        assert spanning  # multi-shelf systems produce spanning groups

    def test_single_shelf_layout_honored(self):
        spec = FleetSpec.paper_default(
            scale=0.002, layout_policy=LayoutPolicy.SINGLE_SHELF
        )
        fleet = build_fleet(spec, RandomSource(5))
        for system in fleet.systems:
            for group in system.raid_groups:
                assert group.span == 1

    def test_serials_unique(self, fleet):
        serials = [disk.serial for disk in fleet.iter_disks()]
        assert len(serials) == len(set(serials))

    def test_system_ids_unique(self, fleet):
        ids = [s.system_id for s in fleet.systems]
        assert len(ids) == len(set(ids))


class TestFleetContainer:
    def test_lookup(self, fleet):
        system = fleet.systems[0]
        assert fleet.system(system.system_id) is system

    def test_lookup_missing(self, fleet):
        with pytest.raises(TopologyError):
            fleet.system("nope")

    def test_duplicate_ids_rejected(self, fleet):
        with pytest.raises(TopologyError):
            Fleet(
                systems=[fleet.systems[0], fleet.systems[0]],
                duration_seconds=100.0,
            )

    def test_counts_consistent(self, fleet):
        assert fleet.shelf_count == sum(len(s.shelves) for s in fleet.systems)
        assert fleet.disk_count_ever == sum(
            1 for _ in fleet.iter_disks()
        )
        assert fleet.raid_group_count == sum(
            1 for _ in fleet.iter_raid_groups()
        )

    def test_exposure_positive(self, fleet):
        assert fleet.disk_exposure_seconds() > 0.0

    def test_exposure_monotone_in_window(self, fleet):
        assert fleet.disk_exposure_seconds(1e6) <= fleet.disk_exposure_seconds(1e7)
