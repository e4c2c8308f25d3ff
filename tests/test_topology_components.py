"""Tests for disks, slots, and shelf enclosures."""

import pytest

from repro.errors import TopologyError
from repro.topology.components import MAX_DISKS_PER_SHELF, Disk, DiskSlot, Shelf


def make_disk(disk_id="sh-x-00/00#0", install=0.0, remove=None, slot=0):
    return Disk(
        disk_id=disk_id,
        model="A-1",
        system_id="x",
        shelf_id="sh-x-00",
        slot_index=slot,
        raid_group_id="rg-0",
        install_time=install,
        remove_time=remove,
        serial="S0001",
    )


class TestDisk:
    def test_in_service_inside_lifetime(self):
        disk = make_disk(install=100.0, remove=200.0)
        assert disk.in_service_at(150.0)

    def test_not_in_service_before_install(self):
        disk = make_disk(install=100.0)
        assert not disk.in_service_at(50.0)

    def test_not_in_service_after_remove(self):
        disk = make_disk(install=100.0, remove=200.0)
        assert not disk.in_service_at(200.0)  # removal instant exclusive

    def test_in_service_forever_without_removal(self):
        disk = make_disk(install=0.0)
        assert disk.in_service_at(1e9)

    def test_service_seconds_truncates_at_window(self):
        disk = make_disk(install=100.0)
        assert disk.service_seconds(300.0) == pytest.approx(200.0)

    def test_service_seconds_respects_removal(self):
        disk = make_disk(install=100.0, remove=250.0)
        assert disk.service_seconds(1000.0) == pytest.approx(150.0)

    def test_service_seconds_never_negative(self):
        disk = make_disk(install=500.0)
        assert disk.service_seconds(100.0) == 0.0


class TestDiskSlot:
    def make_slot(self):
        return DiskSlot(shelf_id="sh-x-00", slot_index=3, raid_group_id="rg-0")

    def test_slot_key_format(self):
        assert self.make_slot().slot_key == "sh-x-00/03"

    def test_install_and_current(self):
        slot = self.make_slot()
        disk = make_disk(disk_id="sh-x-00/03#0", slot=3)
        slot.disks.append(disk)
        assert slot.current_disk is disk

    def test_replacement_after_removal(self):
        slot = self.make_slot()
        first = make_disk(disk_id="sh-x-00/03#0", slot=3, remove=100.0)
        second = make_disk(disk_id="sh-x-00/03#1", slot=3, install=150.0)
        slot.disks.extend([first, second])
        assert slot.current_disk is second
        assert len(slot.disks) == 2

    def test_current_disk_none_when_removed(self):
        slot = self.make_slot()
        slot.disks.append(make_disk(disk_id="sh-x-00/03#0", slot=3, remove=10.0))
        assert slot.current_disk is None

    def test_current_disk_none_when_empty(self):
        assert self.make_slot().current_disk is None


class TestShelf:
    def make_shelf(self):
        return Shelf(shelf_id="sh-x-00", model="B", system_id="x")

    def test_add_slots(self):
        shelf = self.make_shelf()
        shelf.add_slots(5)
        assert len(shelf.slots) == 5
        assert [slot.slot_index for slot in shelf.slots] == [0, 1, 2, 3, 4]

    def test_add_slots_respects_capacity(self):
        shelf = self.make_shelf()
        with pytest.raises(TopologyError):
            shelf.add_slots(MAX_DISKS_PER_SHELF + 1)

    def test_add_slots_incremental_capacity(self):
        shelf = self.make_shelf()
        shelf.add_slots(10)
        with pytest.raises(TopologyError):
            shelf.add_slots(5)
        shelf.add_slots(4)  # exactly at the limit is fine
        assert len(shelf.slots) == 14

    def test_add_slots_with_group_ids(self):
        shelf = self.make_shelf()
        shelf.add_slots(2, ["rg-1", "rg-2"])
        assert [slot.raid_group_id for slot in shelf.slots] == ["rg-1", "rg-2"]

    def test_disk_count_ever_counts_replacements(self):
        shelf = self.make_shelf()
        shelf.add_slots(1)
        slot = shelf.slots[0]
        slot.disks.append(make_disk(disk_id="sh-x-00/00#0", remove=10.0))
        slot.disks.append(make_disk(disk_id="sh-x-00/00#1", install=20.0))
        assert shelf.disk_count_ever == 2

    def test_iter_disks_order(self):
        shelf = self.make_shelf()
        shelf.add_slots(2)
        shelf.slots[0].disks.append(make_disk(disk_id="sh-x-00/00#0", slot=0))
        shelf.slots[1].disks.append(make_disk(disk_id="sh-x-00/01#0", slot=1))
        assert [d.disk_id for d in shelf.iter_disks()] == [
            "sh-x-00/00#0",
            "sh-x-00/01#0",
        ]

    def test_max_disks_constant_matches_paper(self):
        # §2.2: every studied shelf model hosts at most 14 disks.
        assert MAX_DISKS_PER_SHELF == 14
