"""The storage system: shelves + RAID groups + path configuration."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TopologyError
from repro.topology.classes import SystemClass
from repro.topology.components import Shelf
from repro.topology.raidgroup import RAIDGroup


class StorageSystem:
    """One commercially deployed storage system.

    Attributes:
        system_id: fleet-unique identifier.
        system_class: near-line / low-end / mid-range / high-end.
        shelf_model: anonymized shelf enclosure model used by the system
            (systems in the study use one enclosure model throughout).
        primary_disk_model: the disk model most bays were populated with.
        dual_path: True when the system connects shelves to two
            independent FC networks (active/passive multipathing, §4.3).
        deploy_time: seconds since study start when the system shipped;
            exposure is accumulated from this point on.
        shelves: a hand-built system's shelf enclosures.
        raid_groups: a hand-built system's RAID groups.

    A system of a :class:`~repro.fleet.fleet.Fleet` is a view of one
    row of the fleet's arrays: the system-level fields are plain
    attributes, and the counts and exposure read the arrays.  It has no
    ``shelves`` or ``raid_groups``: the fleet's arrays hold its shelves,
    bays, disks and RAID groups.  A system built by hand owns its
    ``shelves`` and ``raid_groups`` lists, which packing it into a
    fleet reads.
    """

    __slots__ = (
        "system_id",
        "system_class",
        "shelf_model",
        "primary_disk_model",
        "dual_path",
        "deploy_time",
        "shelves",
        "raid_groups",
        "_fleet",
        "_index",
    )

    def __init__(
        self,
        system_id: str,
        system_class: SystemClass,
        shelf_model: str,
        primary_disk_model: str,
        dual_path: bool,
        deploy_time: float,
        shelves: Optional[List[Shelf]] = None,
        raid_groups: Optional[List[RAIDGroup]] = None,
    ) -> None:
        if dual_path and not system_class.supports_dual_path:
            raise TopologyError(
                "system class %s does not support dual-path FC"
                % system_class.value
            )
        self.system_id = system_id
        self.system_class = system_class
        self.shelf_model = shelf_model
        self.primary_disk_model = primary_disk_model
        self.dual_path = dual_path
        self.deploy_time = deploy_time
        self.shelves: List[Shelf] = list(shelves or [])
        self.raid_groups: List[RAIDGroup] = list(raid_groups or [])
        self._fleet = None
        self._index = -1

    @classmethod
    def fleet_row(
        cls,
        fleet,
        index: int,
        system_id: str,
        system_class: SystemClass,
        shelf_model: str,
        primary_disk_model: str,
        dual_path: bool,
        deploy_time: float,
    ) -> "StorageSystem":
        """The view of row ``index`` of ``fleet`` (built by the fleet)."""
        system = cls.__new__(cls)
        system.system_id = system_id
        system.system_class = system_class
        system.shelf_model = shelf_model
        system.primary_disk_model = primary_disk_model
        system.dual_path = dual_path
        system.deploy_time = deploy_time
        system._fleet = fleet
        system._index = index
        return system

    @property
    def fleet(self):
        """The fleet this system is a row of (None if built by hand)."""
        return self._fleet

    @property
    def fleet_index(self) -> int:
        """This system's row in :attr:`fleet` (-1 if built by hand)."""
        return self._index

    def __repr__(self) -> str:
        return "StorageSystem(%r, %s)" % (self.system_id, self.system_class.value)

    # -- accounting --------------------------------------------------------

    @property
    def shelf_count(self) -> int:
        """Number of shelf enclosures."""
        if self._fleet is not None:
            return self._fleet.system_shelf_count(self._index)
        return len(self.shelves)

    @property
    def raid_group_count(self) -> int:
        """Number of RAID groups."""
        if self._fleet is not None:
            return self._fleet.system_group_count(self._index)
        return len(self.raid_groups)

    @property
    def disk_count_ever(self) -> int:
        """Disks ever installed during the window (Table 1 convention)."""
        if self._fleet is not None:
            return self._fleet.system_disk_count(self._index)
        return sum(shelf.disk_count_ever for shelf in self.shelves)

    @property
    def slot_count(self) -> int:
        """Number of populated disk bays."""
        if self._fleet is not None:
            return self._fleet.system_slot_count(self._index)
        return sum(len(shelf.slots) for shelf in self.shelves)

    def disk_exposure_seconds(self, window_end: float) -> float:
        """Summed in-service disk time (disk-seconds) up to ``window_end``.

        Disks are summed one by one in bay and generation order, which is
        the order the fleet's exposure column adds them in.
        """
        if self._fleet is not None:
            return self._fleet.system_exposure_seconds(self._index, window_end)
        total = 0.0
        for shelf in self.shelves:
            for slot in shelf.slots:
                for disk in slot.disks:
                    total += disk.service_seconds(window_end)
        return total

    def age_at(self, time: float) -> float:
        """Seconds in the field at ``time`` (0 if not yet deployed)."""
        return max(0.0, time - self.deploy_time)
