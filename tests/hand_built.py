"""Hand-built copies of fleet systems, for tests of hand-built input.

A fleet keeps its shelves, bays, disks and RAID groups as arrays; a
system built by hand holds them as :mod:`repro.topology` objects.
:func:`hand_built` makes the second from the first, so a test can feed
the same system to both kinds of input.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.fleet import RAID_TYPES, Fleet, serial_text
from repro.topology.components import Disk, Shelf
from repro.topology.raidgroup import RAIDGroup
from repro.topology.system import StorageSystem


def hand_built(fleet: Fleet, index: int) -> StorageSystem:
    """Row ``index`` of ``fleet`` as a system built by hand."""
    view = fleet.systems[index]
    shelves = []
    bays = {}
    for shelf in range(fleet.system_shelf_start[index], fleet.system_shelf_start[index + 1]):
        slots = np.arange(fleet.shelf_slot_start[shelf], fleet.shelf_slot_start[shelf + 1])
        item = Shelf(fleet.shelf_ids[shelf], view.shelf_model, view.system_id)
        item.add_slots(slots.size, fleet.slot_group_ids(slots))
        bays.update(zip(slots.tolist(), item.slots))
        shelves.append(item)
    rows = np.flatnonzero(fleet.slot_system[fleet.disk_slot] == index)
    for row, disk_id in zip(rows.tolist(), fleet.disk_ids(rows)):
        bay = bays[int(fleet.disk_slot[row])]
        remove = float(fleet.disk_remove[row])
        bay.disks.append(
            Disk(
                disk_id=disk_id,
                model=view.primary_disk_model,
                system_id=view.system_id,
                shelf_id=bay.shelf_id,
                slot_index=bay.slot_index,
                raid_group_id=bay.raid_group_id,
                install_time=float(fleet.disk_install[row]),
                remove_time=None if remove == np.inf else remove,
                serial=serial_text(int(fleet.disk_serial[row])),
            )
        )
    layout = fleet.group_layout(np.array(sorted(bays), dtype=np.int64))
    groups = []
    for group in range(fleet.system_group_start[index], fleet.system_group_start[index + 1]):
        members = layout[fleet.slot_group[layout] == group]
        groups.append(
            RAIDGroup(
                raid_group_id=fleet.group_ids[group],
                system_id=view.system_id,
                raid_type=RAID_TYPES[int(fleet.group_raid_type[group])],
                slot_keys=fleet.slot_keys(members),
            )
        )
    return StorageSystem(
        view.system_id,
        view.system_class,
        view.shelf_model,
        view.primary_disk_model,
        view.dual_path,
        view.deploy_time,
        shelves=shelves,
        raid_groups=groups,
    )
