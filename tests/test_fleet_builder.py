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
            assert system.shelf_count == twin.shelf_count
            assert np.array_equal(
                subset.disk_serial[_disk_rows(subset, system.fleet_index)],
                full.disk_serial[_disk_rows(full, twin.fleet_index)],
            )

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
        # Each bay's last disk is in service, installed at deployment.
        assert (np.diff(fleet.slot_disk_start) >= 1).all()
        last = fleet.slot_disk_start[1:] - 1
        assert np.isinf(fleet.disk_remove[last]).all()
        assert np.array_equal(fleet.disk_install[last], fleet.deploy_time[fleet.slot_system])

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
        # Every bay is in a RAID group of its own system.
        assert (fleet.slot_group >= 0).all()
        owner = np.searchsorted(fleet.system_group_start, fleet.slot_group, side="right") - 1
        assert np.array_equal(owner, fleet.slot_system)

    def test_spanning_layout_by_default(self, fleet):
        # Multi-shelf systems produce spanning groups.
        assert (_group_spans(fleet) > 1).any()

    def test_single_shelf_layout_honored(self):
        spec = FleetSpec.paper_default(
            scale=0.002, layout_policy=LayoutPolicy.SINGLE_SHELF
        )
        fleet = build_fleet(spec, RandomSource(5))
        assert (_group_spans(fleet) == 1).all()

    def test_serials_unique(self, fleet):
        assert np.unique(fleet.disk_serial).size == fleet.disk_count_ever

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
        assert fleet.shelf_count == sum(s.shelf_count for s in fleet.systems)
        assert fleet.disk_count_ever == sum(s.disk_count_ever for s in fleet.systems)
        assert fleet.raid_group_count == sum(s.raid_group_count for s in fleet.systems)

    def test_exposure_positive(self, fleet):
        assert fleet.disk_exposure_seconds() > 0.0

    def test_exposure_monotone_in_window(self, fleet):
        assert fleet.disk_exposure_seconds(1e6) <= fleet.disk_exposure_seconds(1e7)


def _disk_rows(fleet, index):
    """The lifetime-table rows of system ``index``'s disks."""
    return np.flatnonzero(fleet.slot_system[fleet.disk_slot] == index)


def _group_spans(fleet):
    """Per RAID group, how many shelves its bays sit on."""
    pairs = np.unique(np.stack((fleet.slot_group, fleet.slot_shelf)), axis=1)
    return np.bincount(pairs[0][pairs[0] >= 0], minlength=fleet.raid_group_count)
