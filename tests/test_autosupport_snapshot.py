"""Tests for configuration snapshots (fleet serialization)."""

import pytest

from repro.autosupport.snapshot import parse_snapshot, write_snapshot
from repro.errors import LogFormatError


@pytest.fixture(scope="module")
def roundtripped(small_sim):
    fleet = small_sim.fleet
    return fleet, parse_snapshot(write_snapshot(fleet))


class TestRoundTrip:
    def test_counts_preserved(self, roundtripped):
        original, rebuilt = roundtripped
        assert rebuilt.system_count == original.system_count
        assert rebuilt.shelf_count == original.shelf_count
        assert rebuilt.disk_count_ever == original.disk_count_ever
        assert rebuilt.raid_group_count == original.raid_group_count

    def test_duration_preserved(self, roundtripped):
        original, rebuilt = roundtripped
        assert rebuilt.duration_seconds == original.duration_seconds

    def test_system_attributes_preserved(self, roundtripped):
        original, rebuilt = roundtripped
        for system in original.systems:
            copy = rebuilt.system(system.system_id)
            assert copy.system_class is system.system_class
            assert copy.shelf_model == system.shelf_model
            assert copy.primary_disk_model == system.primary_disk_model
            assert copy.dual_path == system.dual_path
            assert copy.deploy_time == pytest.approx(system.deploy_time)

    def test_disk_lifetimes_preserved(self, roundtripped):
        original, rebuilt = roundtripped
        rebuilt_disks = {d.disk_id: d for d in rebuilt.iter_disks()}
        for disk in original.iter_disks():
            copy = rebuilt_disks[disk.disk_id]
            assert copy.install_time == pytest.approx(disk.install_time)
            if disk.remove_time is None:
                assert copy.remove_time is None
            else:
                assert copy.remove_time == pytest.approx(disk.remove_time)
            assert copy.serial == disk.serial
            assert copy.model == disk.model

    def test_raid_groups_preserved(self, roundtripped):
        original, rebuilt = roundtripped
        original_groups = {g.raid_group_id: g for g in original.iter_raid_groups()}
        rebuilt_groups = {g.raid_group_id: g for g in rebuilt.iter_raid_groups()}
        assert set(original_groups) == set(rebuilt_groups)
        for group_id, group in original_groups.items():
            copy = rebuilt_groups[group_id]
            assert copy.slot_keys == group.slot_keys
            assert copy.raid_type is group.raid_type

    def test_slot_group_assignments_preserved(self, roundtripped):
        original, rebuilt = roundtripped
        for system in original.systems:
            copy = rebuilt.system(system.system_id)
            for slot, slot_copy in zip(system.iter_slots(), copy.iter_slots()):
                assert slot_copy.raid_group_id == slot.raid_group_id

    def test_exposure_identical(self, roundtripped):
        original, rebuilt = roundtripped
        assert rebuilt.disk_exposure_seconds() == pytest.approx(
            original.disk_exposure_seconds()
        )

    def test_double_roundtrip_stable(self, roundtripped):
        _original, rebuilt = roundtripped
        again = parse_snapshot(write_snapshot(rebuilt))
        assert write_snapshot(again) == write_snapshot(rebuilt)


class TestMalformed:
    def test_missing_meta(self):
        with pytest.raises(LogFormatError):
            parse_snapshot("[system x]\nclass = nearline\n")

    def test_bad_duration(self):
        with pytest.raises(LogFormatError):
            parse_snapshot("[meta]\nversion = 1\nduration_seconds = -5\n")

    def test_stray_line(self):
        with pytest.raises(LogFormatError):
            parse_snapshot("hello world\n")

    def test_dangling_shelf_reference(self):
        text = (
            "[meta]\nversion = 1\nduration_seconds = 100.0\n"
            "[shelf sh-x-00]\nsystem = missing\nmodel = A\nslots = 2\nslot_groups = a,b\n"
        )
        with pytest.raises(LogFormatError):
            parse_snapshot(text)

    def test_bad_system_section(self):
        text = (
            "[meta]\nversion = 1\nduration_seconds = 100.0\n"
            "[system x]\nclass = warp_core\n"
        )
        with pytest.raises(LogFormatError):
            parse_snapshot(text)

    def test_comments_and_blanks_ignored(self):
        text = (
            "# a comment\n\n[meta]\nversion = 1\nduration_seconds = 100.0\n\n"
        )
        fleet = parse_snapshot(text)
        assert fleet.system_count == 0


_ONE_SYSTEM = (
    "[meta]\nversion = 1\nduration_seconds = 100.0\n"
    "[system x]\nclass = nearline\nshelf_model = A\ndisk_model = A-1\n"
    "dual_path = false\ndeploy_time = 0.0\n"
    "[shelf sh-x-00]\nsystem = x\nmodel = {shelf_model}\nslots = 2\n"
    "slot_groups = rg-x-0000,{second_group}\n"
    "[disk sh-x-00/00#0]\nmodel = {disk_model}\nslot = 0\nserial = {serial}\n"
    "install_time = 0.0\nremove_time = none\n"
    "[raidgroup rg-x-0000]\nsystem = x\nraid_type = RAID4\n"
    "slot_keys = sh-x-00/00,sh-x-00/01\n"
)


def _one_system(**overrides):
    fields = dict(
        shelf_model="A", disk_model="A-1", serial="S0000002A", second_group="rg-x-0000"
    )
    fields.update(overrides)
    return _ONE_SYSTEM.format(**fields)


class TestWhatAFleetCannotHold:
    def test_well_formed_parses(self):
        fleet = parse_snapshot(_one_system())
        assert [d.serial for d in fleet.iter_disks()] == ["S0000002A"]
        assert fleet.raid_group_count == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"shelf_model": "B"}, "shelf sh-x-00 has model 'B'"),
            ({"disk_model": "A-2"}, "disk sh-x-00/00#0 has model 'A-2'"),
            ({"serial": "S2A"}, "not S \\+ 8 hex digits"),
            ({"second_group": "rg-y-0000"}, "not one of its system's"),
        ],
    )
    def test_rejected(self, overrides, message):
        with pytest.raises(LogFormatError, match=message):
            parse_snapshot(_one_system(**overrides))
