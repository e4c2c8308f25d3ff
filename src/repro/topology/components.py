"""Physical components: disks, disk slots, and shelf enclosures.

A :class:`Shelf` owns up to 14 :class:`DiskSlot` bays.  Because disks are
replaced in the field (the paper counts "disks ever installed" and
accounts for per-disk lifetime), a slot keeps the full *history* of disks
it has hosted; exposure accounting walks those histories.

These objects describe systems built by hand; a
:class:`~repro.fleet.fleet.Fleet` packs them into its arrays and keeps
no objects of its own.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.errors import TopologyError

#: Every shelf enclosure model in the study hosts at most 14 disks (§2.2).
MAX_DISKS_PER_SHELF = 14


@dataclasses.dataclass
class Disk:
    """One physical disk, from installation until removal (or study end).

    Attributes:
        disk_id: fleet-unique identifier.
        model: anonymized disk model name, e.g. ``"D-2"``.
        system_id / shelf_id: hosting system and shelf.
        slot_index: bay index within the shelf.
        raid_group_id: the RAID group the slot belongs to.
        install_time: seconds since study start when the disk entered
            service (0 for disks present at system deployment).
        remove_time: when the disk left service (after a disk failure),
            or ``None`` if still in service at the end of the window.
        serial: pseudo serial number, used in log messages.
    """

    disk_id: str
    model: str
    system_id: str
    shelf_id: str
    slot_index: int
    raid_group_id: str
    install_time: float
    remove_time: Optional[float] = None
    serial: str = ""

    def service_seconds(self, window_end: float) -> float:
        """In-service time accumulated by ``window_end`` (exposure)."""
        end = window_end if self.remove_time is None else min(self.remove_time, window_end)
        return max(0.0, end - self.install_time)


@dataclasses.dataclass
class DiskSlot:
    """A physical disk bay; hosts a sequence of disks over time."""

    shelf_id: str
    slot_index: int
    raid_group_id: str
    disks: List[Disk] = dataclasses.field(default_factory=list)

    @property
    def slot_key(self) -> str:
        """Stable identifier of the bay, e.g. ``"shelf-0007/03"``."""
        return "%s/%02d" % (self.shelf_id, self.slot_index)


@dataclasses.dataclass
class Shelf:
    """A shelf enclosure: power, cooling, and a prewired backplane.

    Disks mounted in the same shelf share the enclosure's environment —
    the mechanism behind the shelf-level failure correlation the paper
    reports (§5.2.3).
    """

    shelf_id: str
    model: str
    system_id: str
    slots: List[DiskSlot] = dataclasses.field(default_factory=list)

    def add_slots(self, count: int, raid_group_ids: Optional[List[str]] = None) -> None:
        """Create ``count`` empty bays (RAID group ids may be set later)."""
        if len(self.slots) + count > MAX_DISKS_PER_SHELF:
            raise TopologyError(
                "shelf %s cannot host %d disks (max %d)"
                % (self.shelf_id, len(self.slots) + count, MAX_DISKS_PER_SHELF)
            )
        for offset in range(count):
            group_id = raid_group_ids[offset] if raid_group_ids else ""
            self.slots.append(
                DiskSlot(
                    shelf_id=self.shelf_id,
                    slot_index=len(self.slots),
                    raid_group_id=group_id,
                )
            )

    @property
    def disk_count_ever(self) -> int:
        """Number of disks ever installed (the paper's Table 1 convention)."""
        return sum(len(slot.disks) for slot in self.slots)
