"""Tests for StorageSystem and RAIDGroup."""

import pytest

from repro.errors import TopologyError
from repro.topology.classes import SystemClass
from repro.topology.components import Disk, Shelf
from repro.topology.layout import assign_raid_groups
from repro.topology.raidgroup import RAIDGroup, RaidType
from repro.topology.system import StorageSystem


def make_system(dual_path=False, system_class=SystemClass.MID_RANGE):
    system = StorageSystem(
        system_id="t-1",
        system_class=system_class,
        shelf_model="B",
        primary_disk_model="A-2",
        dual_path=dual_path,
        deploy_time=1000.0,
    )
    for index in range(2):
        shelf = Shelf(shelf_id="sh-t-1-%02d" % index, model="B", system_id="t-1")
        shelf.add_slots(4)
        system.shelves.append(shelf)
    system.raid_groups = assign_raid_groups(
        "t-1", system.shelves, 4, RaidType.RAID4
    )
    for slot in system.iter_slots():
        slot.disks.append(
            Disk(
                disk_id="%s#0" % slot.slot_key,
                model="A-2",
                system_id="t-1",
                shelf_id=slot.shelf_id,
                slot_index=slot.slot_index,
                raid_group_id=slot.raid_group_id,
                install_time=1000.0,
            )
        )
    return system


class TestRaidGroup:
    def test_parity_counts(self):
        assert RaidType.RAID4.parity_disks == 1
        assert RaidType.RAID6.parity_disks == 2

    def test_tolerated_failures(self):
        assert RaidType.RAID4.tolerated_failures == 1
        assert RaidType.RAID6.tolerated_failures == 2

    def test_data_disks(self):
        group = RAIDGroup("rg", "s", RaidType.RAID6, ["a/00", "a/01", "b/00", "b/01"])
        assert group.size == 4
        assert group.data_disks == 2

    def test_shelf_ids_and_span(self):
        group = RAIDGroup("rg", "s", RaidType.RAID4, ["sh-a/00", "sh-b/01", "sh-a/02"])
        assert group.shelf_ids == {"sh-a", "sh-b"}
        assert group.span == 2


class TestStorageSystem:
    def test_dual_path_requires_support(self):
        with pytest.raises(TopologyError):
            StorageSystem(
                system_id="x",
                system_class=SystemClass.LOW_END,
                shelf_model="A",
                primary_disk_model="A-2",
                dual_path=True,
                deploy_time=0.0,
            )

    def test_slot_by_key(self):
        system = make_system()
        slot = system.slot_by_key("sh-t-1-00/02")
        assert slot.slot_index == 2

    def test_slot_by_key_missing(self):
        system = make_system()
        with pytest.raises(TopologyError):
            system.slot_by_key("sh-t-1-00/99")

    def test_raid_group_by_id(self):
        system = make_system()
        group = system.raid_groups[0]
        assert system.raid_group_by_id(group.raid_group_id) is group

    def test_raid_group_by_id_missing(self):
        system = make_system()
        with pytest.raises(TopologyError):
            system.raid_group_by_id("rg-nope")

    def test_counts(self):
        system = make_system()
        assert system.slot_count == 8
        assert system.disk_count_ever == 8
        assert len(system.raid_groups) == 2

    def test_exposure_accounting(self):
        system = make_system()
        # 8 disks installed at t=1000; exposure to t=2000 is 8000 disk-s.
        assert system.disk_exposure_seconds(2000.0) == pytest.approx(8000.0)

    def test_exposure_respects_removals(self):
        system = make_system()
        disk = next(system.iter_disks())
        disk.remove_time = 1500.0
        assert system.disk_exposure_seconds(2000.0) == pytest.approx(7500.0)

    def test_age(self):
        system = make_system()
        assert system.age_at(500.0) == 0.0
        assert system.age_at(2500.0) == pytest.approx(1500.0)

    def test_slot_index_cache_updates_after_adding_slots(self):
        system = make_system()
        system.slot_by_key("sh-t-1-00/00")  # warm the cache
        shelf = Shelf(shelf_id="sh-t-1-02", model="B", system_id="t-1")
        shelf.add_slots(2)
        system.shelves.append(shelf)
        assert system.slot_by_key("sh-t-1-02/01").shelf_id == "sh-t-1-02"
