"""Tests for RAID group layout policies."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.components import Shelf
from repro.topology.layout import LayoutPolicy, assign_raid_groups, group_layout
from repro.topology.raidgroup import RaidType


def make_shelves(n_shelves, slots_each):
    shelves = []
    for index in range(n_shelves):
        shelf = Shelf(shelf_id="sh-t-%02d" % index, model="A", system_id="t")
        shelf.add_slots(slots_each)
        shelves.append(shelf)
    return shelves


class TestAssignment:
    def test_every_slot_assigned(self):
        shelves = make_shelves(3, 10)
        groups = assign_raid_groups("t", shelves, 6, RaidType.RAID4)
        assigned = {key for group in groups for key in group.slot_keys}
        all_keys = {slot.slot_key for shelf in shelves for slot in shelf.slots}
        assert assigned == all_keys

    def test_no_slot_in_two_groups(self):
        shelves = make_shelves(3, 10)
        groups = assign_raid_groups("t", shelves, 6, RaidType.RAID4)
        keys = [key for group in groups for key in group.slot_keys]
        assert len(keys) == len(set(keys))

    def test_slots_back_reference_their_group(self):
        shelves = make_shelves(2, 6)
        groups = assign_raid_groups("t", shelves, 4, RaidType.RAID4)
        by_id = {group.raid_group_id: group for group in groups}
        for shelf in shelves:
            for slot in shelf.slots:
                assert slot.slot_key in by_id[slot.raid_group_id].slot_keys

    def test_group_sizes(self):
        shelves = make_shelves(3, 10)  # 30 slots
        groups = assign_raid_groups("t", shelves, 7, RaidType.RAID4)
        sizes = [group.size for group in groups]
        assert sizes == [7, 7, 7, 7, 2]  # remainder group at the end

    def test_group_ids_unique_and_prefixed(self):
        shelves = make_shelves(2, 8)
        groups = assign_raid_groups("t", shelves, 4, RaidType.RAID6, id_prefix="rg")
        ids = [group.raid_group_id for group in groups]
        assert len(ids) == len(set(ids))
        assert all(gid.startswith("rg-t-") for gid in ids)

    def test_raid_type_recorded(self):
        shelves = make_shelves(1, 8)
        groups = assign_raid_groups("t", shelves, 4, RaidType.RAID6)
        assert all(group.raid_type is RaidType.RAID6 for group in groups)


class TestSpanningPolicy:
    def test_spanning_groups_span_shelves(self):
        shelves = make_shelves(3, 10)
        groups = assign_raid_groups(
            "t", shelves, 6, RaidType.RAID4, LayoutPolicy.SPAN_SHELVES, span_width=3
        )
        full_groups = [group for group in groups if group.size == 6]
        assert all(group.span == 3 for group in full_groups)

    def test_span_width_limits_spread(self):
        shelves = make_shelves(6, 10)
        groups = assign_raid_groups(
            "t", shelves, 6, RaidType.RAID4, LayoutPolicy.SPAN_SHELVES, span_width=2
        )
        assert all(group.span <= 2 for group in groups)

    def test_single_shelf_groups_stay_in_one_shelf(self):
        shelves = make_shelves(3, 12)
        groups = assign_raid_groups(
            "t", shelves, 6, RaidType.RAID4, LayoutPolicy.SINGLE_SHELF
        )
        assert all(group.span == 1 for group in groups)

    def test_spanning_with_one_shelf_degrades_gracefully(self):
        shelves = make_shelves(1, 12)
        groups = assign_raid_groups(
            "t", shelves, 6, RaidType.RAID4, LayoutPolicy.SPAN_SHELVES
        )
        assert all(group.span == 1 for group in groups)

    def test_uneven_shelves_all_assigned(self):
        shelves = make_shelves(2, 5)
        shelves[1].slots.pop()  # second shelf one slot short
        groups = assign_raid_groups(
            "t", shelves, 4, RaidType.RAID4, LayoutPolicy.SPAN_SHELVES
        )
        assert sum(group.size for group in groups) == 9


class TestValidation:
    def test_group_too_small_for_parity(self):
        shelves = make_shelves(1, 8)
        with pytest.raises(TopologyError):
            assign_raid_groups("t", shelves, 2, RaidType.RAID6)

    def test_no_slots(self):
        shelf = Shelf(shelf_id="sh-t-00", model="A", system_id="t")
        with pytest.raises(TopologyError):
            assign_raid_groups("t", [shelf], 4, RaidType.RAID4)

    def test_bad_span_width(self):
        shelves = make_shelves(2, 8)
        with pytest.raises(TopologyError):
            assign_raid_groups(
                "t", shelves, 4, RaidType.RAID4, span_width=0
            )


class TestGroupLayoutArrays:
    """The builder's vectorized layout numbers groups exactly as
    assign_raid_groups does, system by system."""

    SHAPES = [
        (n_shelves, slots, size)
        for n_shelves in (1, 2, 3, 4, 7)
        for slots in (3, 7, 11, 14)
        for size in (3, 6, 8, 9, 14)
    ]

    @pytest.mark.parametrize("policy", list(LayoutPolicy))
    def test_matches_object_layout(self, policy):
        shapes = np.array(self.SHAPES)
        slot_group, counts = group_layout(
            shapes[:, 0], shapes[:, 1], shapes[:, 2], policy, span_width=3
        )
        offset = 0
        for (n_shelves, slots, size), count in zip(self.SHAPES, counts):
            groups = assign_raid_groups(
                "t", make_shelves(n_shelves, slots), size, RaidType.RAID4, policy, 3
            )
            bays = n_shelves * slots
            index = {key: g for g, group in enumerate(groups) for key in group.slot_keys}
            want = [
                index[slot.slot_key]
                for shelf in make_shelves(n_shelves, slots)
                for slot in shelf.slots
            ]
            assert slot_group[offset : offset + bays].tolist() == want
            assert count == len(groups)
            offset += bays

    @pytest.mark.parametrize("span", [1, 2, 5])
    def test_span_width(self, span):
        slot_group, counts = group_layout([4], [7], [6], LayoutPolicy.SPAN_SHELVES, span)
        groups = assign_raid_groups(
            "t", make_shelves(4, 7), 6, RaidType.RAID4, LayoutPolicy.SPAN_SHELVES, span
        )
        index = {key: g for g, group in enumerate(groups) for key in group.slot_keys}
        want = [index[s.slot_key] for shelf in make_shelves(4, 7) for s in shelf.slots]
        assert slot_group.tolist() == want and counts.tolist() == [len(groups)]

    def test_bad_span_width(self):
        with pytest.raises(TopologyError):
            group_layout([2], [8], [4], LayoutPolicy.SPAN_SHELVES, span_width=0)
