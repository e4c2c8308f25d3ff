"""The storage system: shelves + RAID groups + path configuration."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import TopologyError
from repro.topology.classes import SystemClass
from repro.topology.components import Disk, DiskSlot, Shelf
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
        shelves: the system's shelf enclosures.
        raid_groups: the system's RAID groups.

    A system of a :class:`~repro.fleet.fleet.Fleet` is a view of one
    row of the fleet's arrays: the system-level fields are plain
    attributes, and the counts and exposure read the arrays.  Its
    shelves, bays, disks and RAID groups are built from the arrays on
    first access, for the consumers that walk disks, and are read-only
    copies: the fleet's arrays stay the record.  A system built by hand
    owns its ``shelves`` and ``raid_groups`` lists directly.
    """

    __slots__ = (
        "system_id",
        "system_class",
        "shelf_model",
        "primary_disk_model",
        "dual_path",
        "deploy_time",
        "_shelves",
        "_raid_groups",
        "_slot_index_cache",
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
        self._shelves: Optional[List[Shelf]] = list(shelves or [])
        self._raid_groups: Optional[List[RAIDGroup]] = list(raid_groups or [])
        self._slot_index_cache: Optional[Dict[str, DiskSlot]] = None
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
        system._shelves = None
        system._raid_groups = None
        system._slot_index_cache = None
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

    # -- the object graph ------------------------------------------------

    @property
    def shelves(self) -> List[Shelf]:
        """The shelf enclosures (built from the fleet on first access)."""
        if self._shelves is None:
            self._build_objects()
        return self._shelves

    @shelves.setter
    def shelves(self, shelves: List[Shelf]) -> None:
        self._shelves = shelves

    @property
    def raid_groups(self) -> List[RAIDGroup]:
        """The RAID groups (built from the fleet on first access)."""
        if self._raid_groups is None:
            self._build_objects()
        return self._raid_groups

    @raid_groups.setter
    def raid_groups(self, groups: List[RAIDGroup]) -> None:
        self._raid_groups = groups

    def _build_objects(self) -> None:
        shelves, groups = self._fleet.build_objects(self._index)
        if self._shelves is None:
            self._shelves = shelves
        if self._raid_groups is None:
            self._raid_groups = groups

    def drop_objects(self) -> None:
        """Forget the built object graph (the fleet's arrays changed)."""
        self._shelves = None
        self._raid_groups = None
        self._slot_index_cache = None

    # -- lookups ---------------------------------------------------------

    def slot_by_key(self, slot_key: str) -> DiskSlot:
        """Resolve a stable bay key (``"<shelf_id>/<slot>"``) to its slot."""
        index = self._slot_index()
        try:
            return index[slot_key]
        except KeyError:
            raise TopologyError(
                "system %s has no slot %s" % (self.system_id, slot_key)
            ) from None

    def _slot_index(self) -> Dict[str, DiskSlot]:
        cached = self._slot_index_cache
        if cached is None or len(cached) != sum(len(s.slots) for s in self.shelves):
            cached = {
                slot.slot_key: slot
                for shelf in self.shelves
                for slot in shelf.slots
            }
            self._slot_index_cache = cached
        return cached

    def raid_group_by_id(self, raid_group_id: str) -> RAIDGroup:
        """Find a RAID group by id."""
        for group in self.raid_groups:
            if group.raid_group_id == raid_group_id:
                return group
        raise TopologyError(
            "system %s has no RAID group %s" % (self.system_id, raid_group_id)
        )

    # -- iteration & accounting ------------------------------------------

    def iter_slots(self) -> Iterator[DiskSlot]:
        """All disk bays across all shelves."""
        for shelf in self.shelves:
            yield from shelf.slots

    def iter_disks(self) -> Iterator[Disk]:
        """All disks ever installed in the system."""
        for shelf in self.shelves:
            yield from shelf.iter_disks()

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
        for disk in self.iter_disks():
            total += disk.service_seconds(window_end)
        return total

    def age_at(self, time: float) -> float:
        """Seconds in the field at ``time`` (0 if not yet deployed)."""
        return max(0.0, time - self.deploy_time)
