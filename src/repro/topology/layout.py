"""RAID group layout policies: spanning shelves vs. within one shelf.

The paper's Fig. 8 shows the common practice of building a RAID group
from one slot of each of several shelves, so a shelf enclosure is not a
single point of failure for the group; groups span about 3 shelves on
average in the studied fleet.  Finding 9 compares this against same-shelf
layouts, so both policies are first-class here.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.components import Shelf
from repro.topology.raidgroup import RAIDGroup, RaidType

#: Average number of shelves a RAID group spans in the studied fleet (§5.1).
DEFAULT_SPAN_WIDTH = 3


class LayoutPolicy(enum.Enum):
    """How RAID group members are placed over shelves."""

    SPAN_SHELVES = "span_shelves"  #: one slot per shelf within a band (Fig. 8)
    SINGLE_SHELF = "single_shelf"  #: consecutive slots within one shelf


def assign_raid_groups(
    system_id: str,
    shelves: List[Shelf],
    group_size: int,
    raid_type: RaidType,
    policy: LayoutPolicy = LayoutPolicy.SPAN_SHELVES,
    span_width: int = DEFAULT_SPAN_WIDTH,
    id_prefix: str = "rg",
) -> List[RAIDGroup]:
    """Partition all bays of ``shelves`` into RAID groups.

    Every bay is assigned to exactly one group; the final group may be
    smaller than ``group_size`` if the bay count does not divide evenly
    (real fleets have such remainder groups too).  The bays'
    ``raid_group_id`` fields are updated in place.

    Args:
        system_id: owner system id, recorded on each group.
        shelves: shelves whose bays are to be grouped; bays must exist.
        group_size: target disks per group (data + parity).
        raid_type: RAID4 or RAID6.
        policy: spanning (default, as in the paper) or single-shelf.
        span_width: for the spanning policy, how many shelves one group
            draws from (the paper's fleet averages about 3).
        id_prefix: prefix for generated group ids.

    Returns:
        The created groups, in id order.

    Raises:
        TopologyError: if ``group_size`` cannot even hold the parity disks,
            ``span_width`` is not positive, or there are no bays to assign.
    """
    if group_size <= raid_type.parity_disks:
        raise TopologyError(
            "group size %d cannot hold %d parity disks plus data"
            % (group_size, raid_type.parity_disks)
        )
    if span_width < 1:
        raise TopologyError("span_width must be >= 1, got %d" % span_width)
    key_runs = _ordered_slot_key_runs(shelves, policy, span_width)
    if not any(key_runs):
        raise TopologyError("no disk bays to assign in system %s" % system_id)

    groups: List[RAIDGroup] = []
    for run in key_runs:
        # Groups never straddle runs (bands/shelves), so the spanning
        # guarantee — a group touches at most span_width shelves — holds
        # even when a band's bay count does not divide evenly.
        for start in range(0, len(run), group_size):
            members = run[start : start + group_size]
            group = RAIDGroup(
                raid_group_id="%s-%s-%04d" % (id_prefix, system_id, len(groups)),
                system_id=system_id,
                raid_type=raid_type,
                slot_keys=members,
            )
            groups.append(group)

    slot_by_key = {
        slot.slot_key: slot for shelf in shelves for slot in shelf.slots
    }
    for group in groups:
        for key in group.slot_keys:
            slot_by_key[key].raid_group_id = group.raid_group_id
    return groups


def _ordered_slot_key_runs(
    shelves: List[Shelf], policy: LayoutPolicy, span_width: int
) -> List[List[str]]:
    """Order bays into runs; groups are cut within a run, never across.

    - ``SINGLE_SHELF``: one run per shelf — every group stays in one
      shelf.
    - ``SPAN_SHELVES``: one run per band of ``span_width`` shelves; the
      run is slot-major (slot 0 of every shelf in the band, then slot 1,
      ...), the column-wise layout of the paper's Fig. 8, so a group's
      consecutive bays come from different shelves.
    """
    if policy is LayoutPolicy.SINGLE_SHELF:
        return [
            [slot.slot_key for slot in shelf.slots] for shelf in shelves
        ]
    runs: List[List[str]] = []
    for band_start in range(0, len(shelves), span_width):
        band = shelves[band_start : band_start + span_width]
        max_slots = max((len(shelf.slots) for shelf in band), default=0)
        run: List[str] = []
        for slot_index in range(max_slots):
            for shelf in band:
                if slot_index < len(shelf.slots):
                    run.append(shelf.slots[slot_index].slot_key)
        runs.append(run)
    return runs


def group_layout(
    shelf_counts: np.ndarray,
    slots_per_shelf: np.ndarray,
    group_size: np.ndarray,
    policy: LayoutPolicy = LayoutPolicy.SPAN_SHELVES,
    span_width: int = DEFAULT_SPAN_WIDTH,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`assign_raid_groups` for many systems at once, as arrays.

    Every system's shelves hold the same number of bays.  Bays are
    numbered system by system, shelf by shelf, slot by slot; the group
    numbers match the order :func:`assign_raid_groups` creates groups
    in, run by run.

    Args:
        shelf_counts / slots_per_shelf / group_size: per system.
        policy / span_width: as for :func:`assign_raid_groups`.

    Returns:
        ``(slot_group, groups)``: each bay's group index within its
        system, and each system's group count.
    """
    shelf_counts = np.asarray(shelf_counts, dtype=np.int64)
    slots_per_shelf = np.asarray(slots_per_shelf, dtype=np.int64)
    group_size = np.asarray(group_size, dtype=np.int64)
    if span_width < 1:
        raise TopologyError("span_width must be >= 1, got %d" % span_width)
    bays = shelf_counts * slots_per_shelf
    system = np.repeat(np.arange(bays.size), bays)
    first_bay = np.cumsum(bays) - bays
    local = np.arange(system.size, dtype=np.int64) - first_bay[system]
    sps = slots_per_shelf[system]
    size = group_size[system]
    shelf, slot = local // sps, local % sps
    if policy is LayoutPolicy.SINGLE_SHELF:
        per_shelf = -(-slots_per_shelf // group_size)
        return shelf * per_shelf[system] + slot // size, shelf_counts * per_shelf
    # Spanning: bands of span_width shelves, each a slot-major run.
    band = shelf // span_width
    in_band = np.minimum(span_width, shelf_counts[system] - band * span_width)
    run_position = slot * in_band + (shelf - band * span_width)
    per_full_band = -(-(span_width * slots_per_shelf) // group_size)
    slot_group = band * per_full_band[system] + run_position // size
    remainder = shelf_counts % span_width
    groups = (shelf_counts // span_width) * per_full_band + -(
        -(remainder * slots_per_shelf) // group_size
    )
    return slot_group, groups
