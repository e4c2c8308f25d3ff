"""The :class:`Fleet`: every system, shelf, bay and disk, as arrays.

A paper-scale fleet holds about a million disks.  The fleet keeps them
as parallel arrays rather than objects:

- per system: id, class, shelf and disk models, path flag, deploy time,
  and the offsets of its shelves and RAID groups;
- per shelf: the offset of its bays (``shelf_slot_start``);
- per bay ("slot"): its RAID group;
- per RAID group: its RAID level;
- the **disk lifetime table**: one row per disk ever installed — bay,
  generation (0 = the disk the system shipped with), install time,
  remove time (``inf`` while in service) and serial — sorted by bay
  and generation.

Bays are numbered system by system, shelf by shelf, so a system's
shelves, bays and disks are contiguous ranges.  Shelf, RAID group, bay
and disk ids are rendered from those numbers (``sh-<system>-<nn>``,
``rg-<system>-<nnnn>``, ``<shelf>/<nn>``, ``<bay>#<generation>``)
unless the fleet was packed from objects or parsed from a snapshot,
which keep the shelf and group ids they were given.

Analyses pick systems with :meth:`Fleet.where`, a boolean mask over
the per-system rows.  ``fleet.systems`` are light
:class:`~repro.topology.system.StorageSystem` views of those rows.  A
view builds its shelves, bays, disks and RAID groups from the arrays
only when a consumer walks disks (RAID replay, prediction, policy, age
analysis, validation); the simulation and the paper's analyses never
do.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.classes import SystemClass
from repro.topology.components import Disk, DiskSlot, Shelf
from repro.topology.raidgroup import RAIDGroup, RaidType
from repro.topology.system import StorageSystem

#: RAID levels by their code in :attr:`Fleet.group_raid_type`.
RAID_TYPES = (RaidType.RAID4, RaidType.RAID6)

#: Per-system list columns, then every array column, as pickled.
_LIST_COLUMNS = ("system_ids", "system_classes", "shelf_models", "disk_models")
_ARRAY_COLUMNS = (
    "dual_path",
    "deploy_time",
    "system_shelf_start",
    "shelf_slot_start",
    "system_group_start",
    "group_raid_type",
    "slot_group",
)
_DISK_COLUMNS = ("disk_slot", "disk_gen", "disk_install", "disk_remove", "disk_serial")
_DISK_DTYPES = (np.int64, np.int32, np.float64, np.float64, np.int64)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, as ``total += value`` in a loop.

    ``np.sum`` adds pairwise and can differ in the last bits; a running
    sum is what every exposure total here has always been.
    """
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def serial_text(value: int) -> str:
    """A disk serial as logged: ``S`` + 8 hex digits ("" when unknown)."""
    return "S%08X" % value if value >= 0 else ""


def serial_value(text: str) -> int:
    """Inverse of :func:`serial_text` (-1 for "")."""
    if not text:
        return -1
    digits = text[1:]
    if text[0] != "S" or len(digits) != 8 or not _is_hex(digits):
        raise TopologyError("serial %r is not S + 8 hex digits" % text)
    return int(digits, 16)


def _is_hex(text: str) -> bool:
    return all(char in "0123456789ABCDEF" for char in text)


def offsets(counts) -> np.ndarray:
    """Start offsets from counts: the exclusive prefix sum with the
    total appended, as in ``system_shelf_start``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, end)`` for each pair, vectorized."""
    lengths = ends - starts
    total = int(lengths.sum())
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


class Fleet:
    """A population of storage systems under study (module docstring).

    Args:
        systems: systems built by hand (object graphs), packed into the
            arrays; fleets are otherwise made by
            :func:`~repro.fleet.builder.build_fleet`,
            :func:`~repro.autosupport.snapshot.parse_snapshot` and
            :meth:`from_columns`.
        duration_seconds: the observation window the fleet was built for.

    Raises:
        TopologyError: duplicate system ids, or objects the arrays cannot
            hold (a shelf or disk whose model differs from its system's,
            a bay whose key is not its shelf's id and its position on
            the shelf, a disk id that is not ``<bay key>#<generation>``,
            a serial that is not ``S`` + 8 hex digits).
    """

    def __init__(
        self, systems: Sequence[StorageSystem], duration_seconds: float
    ) -> None:
        self._set_columns(duration_seconds, **_pack(systems))

    @classmethod
    def from_columns(cls, duration_seconds: float, **columns) -> "Fleet":
        """A fleet from its arrays (see the module docstring for names).

        ``shelf_ids`` / ``group_ids`` are optional explicit id lists;
        without them ids are rendered from the system ids.
        """
        fleet = cls.__new__(cls)
        fleet._set_columns(duration_seconds, **columns)
        return fleet

    def _set_columns(
        self,
        duration_seconds: float,
        system_ids: List[str],
        system_classes: List[SystemClass],
        shelf_models: List[str],
        disk_models: List[str],
        dual_path,
        deploy_time,
        system_shelf_start,
        shelf_slot_start,
        system_group_start,
        group_raid_type,
        slot_group,
        disk_slot,
        disk_gen,
        disk_install,
        disk_remove,
        disk_serial,
        shelf_ids: Optional[List[str]] = None,
        group_ids: Optional[List[str]] = None,
    ) -> None:
        self.duration_seconds = float(duration_seconds)
        self.system_ids = list(system_ids)
        self.system_classes = list(system_classes)
        self.shelf_models = list(shelf_models)
        self.disk_models = list(disk_models)
        self.dual_path = np.asarray(dual_path, dtype=bool)
        self.deploy_time = np.asarray(deploy_time, dtype=np.float64)
        self.system_shelf_start = np.asarray(system_shelf_start, dtype=np.int64)
        self.shelf_slot_start = np.asarray(shelf_slot_start, dtype=np.int64)
        self.system_group_start = np.asarray(system_group_start, dtype=np.int64)
        self.group_raid_type = np.asarray(group_raid_type, dtype=np.int8)
        self.slot_group = np.asarray(slot_group, dtype=np.int32)
        for name, dtype, values in zip(
            _DISK_COLUMNS,
            _DISK_DTYPES,
            (disk_slot, disk_gen, disk_install, disk_remove, disk_serial),
        ):
            setattr(self, name, np.asarray(values, dtype=dtype))
        self._shelf_ids = None if shelf_ids is None else list(shelf_ids)
        self._group_ids = None if group_ids is None else list(group_ids)
        if len(set(self.system_ids)) != len(self.system_ids):
            raise TopologyError("duplicate system ids in fleet")
        self._lifetime_cache: Dict[object, np.ndarray] = {}
        self._built: set = set()

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        # Arrays only: no views, objects or caches.  The lifetime table
        # goes as per-bay disk counts plus the cells that differ from a
        # bay's deploy-time disk still in service, and every integer
        # column in its smallest dtype — a cached paper-scale fleet is
        # then mostly its serials.
        state: Dict[str, object] = {
            name: getattr(self, name) for name in _LIST_COLUMNS + _ARRAY_COLUMNS
        }
        for name in ("system_shelf_start", "shelf_slot_start", "system_group_start"):
            state[name] = _compact(np.diff(state[name]))
        state["duration_seconds"] = self.duration_seconds
        state["shelf_ids"] = self._shelf_ids
        state["group_ids"] = self._group_ids
        per_slot = np.diff(self.slot_disk_start)
        first = self.slot_disk_start[self.disk_slot]
        rank = np.arange(self.disk_count_ever) - first
        install = self.deploy_time[self.slot_system[self.disk_slot]]
        # RAID groups per bay as 1 + the group's index within its
        # system (0 = no group): one byte per bay.
        state["slot_group"] = _compact(
            np.where(
                self.slot_group >= 0,
                self.slot_group + 1 - self.system_group_start[self.slot_system],
                0,
            )
        )
        state["disks_per_slot"] = _sparse(per_slot, 1)
        state["disk_gen"] = _sparse(self.disk_gen, rank)
        state["disk_install"] = _sparse(self.disk_install, install)
        state["disk_remove"] = _sparse(self.disk_remove, np.inf)
        state["disk_serial"] = _compact(self.disk_serial)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in ("system_shelf_start", "shelf_slot_start", "system_group_start"):
            state[name] = offsets(state[name])
        shelf_slot_start = state["shelf_slot_start"]
        system_shelf_start = state["system_shelf_start"]
        system_group_start = state["system_group_start"]
        n_slots = int(shelf_slot_start[-1])
        slot_system = np.repeat(
            np.arange(len(system_shelf_start) - 1),
            np.diff(shelf_slot_start[system_shelf_start]),
        )
        per_slot = _dense(state["disks_per_slot"], np.ones(n_slots, np.int64))
        disk_slot = np.repeat(np.arange(n_slots), per_slot)
        first = offsets(per_slot)[disk_slot]
        columns = {name: state[name] for name in _LIST_COLUMNS + _ARRAY_COLUMNS}
        columns.update(
            slot_group=np.where(
                state["slot_group"] > 0,
                state["slot_group"].astype(np.int64) - 1 + system_group_start[slot_system],
                -1,
            ),
            disk_slot=disk_slot,
            disk_gen=_dense(state["disk_gen"], np.arange(disk_slot.size) - first),
            disk_install=_dense(
                state["disk_install"],
                np.asarray(state["deploy_time"])[slot_system[disk_slot]],
            ),
            disk_remove=_dense(state["disk_remove"], np.full(disk_slot.size, np.inf)),
            disk_serial=state["disk_serial"],
            shelf_ids=state["shelf_ids"],
            group_ids=state["group_ids"],
        )
        self._set_columns(state["duration_seconds"], **columns)

    # -- sizes ---------------------------------------------------------------

    @property
    def system_count(self) -> int:
        """Number of systems."""
        return len(self.system_ids)

    @property
    def shelf_count(self) -> int:
        """Number of shelf enclosures."""
        return int(self.shelf_slot_start.size - 1)

    @property
    def slot_count(self) -> int:
        """Number of disk bays."""
        return int(self.shelf_slot_start[-1])

    @property
    def raid_group_count(self) -> int:
        """Number of RAID groups."""
        return int(self.group_raid_type.size)

    @property
    def disk_count_ever(self) -> int:
        """Disks ever installed during the window (Table 1 convention)."""
        return int(self.disk_slot.size)

    def system_shelf_count(self, index: int) -> int:
        return int(self.system_shelf_start[index + 1] - self.system_shelf_start[index])

    def system_group_count(self, index: int) -> int:
        return int(self.system_group_start[index + 1] - self.system_group_start[index])

    def system_slot_count(self, index: int) -> int:
        first, last = self._system_slots(index)
        return last - first

    def system_disk_count(self, index: int) -> int:
        first, last = self._system_rows(index)
        return last - first

    def _system_slots(self, index: int) -> Tuple[int, int]:
        shelves = self.system_shelf_start
        return (
            int(self.shelf_slot_start[shelves[index]]),
            int(self.shelf_slot_start[shelves[index + 1]]),
        )

    def _system_rows(self, index: int) -> Tuple[int, int]:
        first, last = self._system_slots(index)
        starts = self.slot_disk_start
        return int(starts[first]), int(starts[last])

    # -- derived index arrays ------------------------------------------------

    @functools.cached_property
    def shelf_system(self) -> np.ndarray:
        """Per shelf, the index of its system."""
        return np.repeat(
            np.arange(self.system_count, dtype=np.int64),
            np.diff(self.system_shelf_start),
        )

    @functools.cached_property
    def shelf_n_slots(self) -> np.ndarray:
        """Per shelf, its bay count."""
        return np.diff(self.shelf_slot_start)

    @functools.cached_property
    def slot_shelf(self) -> np.ndarray:
        """Per bay, the index of its shelf."""
        return np.repeat(
            np.arange(self.shelf_count, dtype=np.int64), self.shelf_n_slots
        )

    @functools.cached_property
    def slot_system(self) -> np.ndarray:
        """Per bay, the index of its system."""
        return self.shelf_system[self.slot_shelf]

    @property
    def slot_disk_start(self) -> np.ndarray:
        """Per bay, its first row in the lifetime table (plus the total)."""
        cached = self._lifetime_cache.get("slot_disk_start")
        if cached is None:
            cached = offsets(np.bincount(self.disk_slot, minlength=self.slot_count))
            self._lifetime_cache["slot_disk_start"] = cached
        return cached

    # -- ids -------------------------------------------------------------------

    @functools.cached_property
    def shelf_ids(self) -> List[str]:
        """Per shelf, its id."""
        if self._shelf_ids is not None:
            return self._shelf_ids
        return _render_ids(
            _SHELF_ID, self.system_ids, self.system_shelf_start, np.arange(self.shelf_count)
        )

    @functools.cached_property
    def group_ids(self) -> List[str]:
        """Per RAID group, its id."""
        if self._group_ids is not None:
            return self._group_ids
        return _render_ids(
            _GROUP_ID, self.system_ids, self.system_group_start,
            np.arange(self.raid_group_count),
        )

    def shelf_ids_of(self, shelves: np.ndarray) -> List[str]:
        """The ids of the given shelves, rendered for those alone."""
        if self._shelf_ids is not None:
            return [self._shelf_ids[shelf] for shelf in shelves.tolist()]
        return _render_ids(_SHELF_ID, self.system_ids, self.system_shelf_start, shelves)

    def group_ids_of(self, groups: np.ndarray) -> List[str]:
        """The ids of the given RAID groups ("" for -1, no group),
        rendered for those alone."""
        grouped = groups[groups >= 0]
        if self._group_ids is not None:
            ids = [self._group_ids[group] for group in grouped.tolist()]
        else:
            ids = _render_ids(_GROUP_ID, self.system_ids, self.system_group_start, grouped)
        rendered = iter(ids)
        return [next(rendered) if group >= 0 else "" for group in groups.tolist()]

    def slot_keys(self, slots: np.ndarray) -> List[str]:
        """Bay keys (``"<shelf_id>/<nn>"``) for global bay indices."""
        slots = np.asarray(slots, dtype=np.int64)
        shelves = self.slot_shelf[slots]
        local = (slots - self.shelf_slot_start[shelves]).tolist()
        ids = self.shelf_ids
        return ["%s/%02d" % (ids[h], k) for h, k in zip(shelves.tolist(), local)]

    def slot_group_ids(self, slots: np.ndarray) -> List[str]:
        """RAID group ids for global bay indices ("" for ungrouped bays)."""
        ids = self.group_ids
        return [
            ids[group] if group >= 0 else ""
            for group in self.slot_group[np.asarray(slots, dtype=np.int64)].tolist()
        ]

    def disk_ids(self, rows: np.ndarray) -> List[str]:
        """Disk ids (``"<bay key>#<generation>"``) for lifetime-table rows."""
        rows = np.asarray(rows, dtype=np.int64)
        keys = self.slot_keys(self.disk_slot[rows])
        return [
            "%s#%d" % (key, gen) for key, gen in zip(keys, self.disk_gen[rows].tolist())
        ]

    @functools.cached_property
    def _shelf_index(self) -> Dict[str, int]:
        return {shelf_id: index for index, shelf_id in enumerate(self.shelf_ids)}

    @functools.cached_property
    def _system_index(self) -> Dict[str, int]:
        return {system_id: index for index, system_id in enumerate(self.system_ids)}

    def find_disk(self, disk_id: str) -> int:
        """The lifetime-table row of a disk id, or -1 if none matches
        (:meth:`disk_rows` for one id)."""
        key = self._disk_key(disk_id)
        keys, order = self._disk_keys
        at = int(keys.searchsorted(key))
        return int(order[at]) if key >= 0 and at < keys.size and keys[at] == key else -1

    def disk_rows(self, disk_ids: Sequence[str]) -> np.ndarray:
        """Lifetime-table rows of disk ids (-1 for an id that names no disk).

        An id names a disk when it is ``<shelf id>/<nn>#<generation>``
        with the fleet's own shelf id, a two-digit bay of that shelf and
        a generation the bay has held, each written as rendered.
        """
        return self._rows_of_keys(
            np.fromiter(map(self._disk_key, disk_ids), dtype=np.int64, count=len(disk_ids))
        )

    def bay_rows(self, slots: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """Lifetime-table rows of (bay, generation) pairs (-1 for a pair
        the table does not hold)."""
        slots = np.asarray(slots, dtype=np.int64)
        gens = np.asarray(gens, dtype=np.int64)
        valid = (slots >= 0) & (gens >= 0) & (gens < 2**31)
        return self._rows_of_keys(np.where(valid, slots * 2**31 + gens, -1))

    def _disk_key(self, disk_id: str) -> int:
        """``bay * 2**31 + generation`` of a disk id (-1 when malformed
        or not a bay of this fleet)."""
        slot_key, _, gen_text = disk_id.rpartition("#")
        shelf_id, _, bay_text = slot_key.rpartition("/")
        shelf = self._shelf_index.get(shelf_id)
        if shelf is None or not (bay_text.isdigit() and gen_text.isdigit()):
            return -1
        bay, gen = int(bay_text), int(gen_text)
        if "%02d" % bay != bay_text or "%d" % gen != gen_text or gen >= 2**31:
            return -1
        if bay >= self.shelf_n_slots[shelf]:
            return -1
        return (int(self.shelf_slot_start[shelf]) + bay) * 2**31 + gen

    def _rows_of_keys(self, wanted: np.ndarray) -> np.ndarray:
        keys, order = self._disk_keys
        if not keys.size:
            return np.full(wanted.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where((wanted >= 0) & (keys[at] == wanted), order[at], -1)

    @property
    def _disk_keys(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``bay * 2**31 + generation`` keys of the lifetime
        table, and the row of each (the first row on a tie)."""
        cached = self._lifetime_cache.get("disk_keys")
        if cached is None:
            keys = self.disk_slot * 2**31 + self.disk_gen
            if bool(np.all(keys[1:] >= keys[:-1])):
                order = np.arange(keys.size)
            else:
                order = np.argsort(keys, kind="stable")
            cached = (keys[order], order)
            self._lifetime_cache["disk_keys"] = cached
        return cached

    def system_index(self, system_id: str) -> int:
        """Row of a system id."""
        try:
            return self._system_index[system_id]
        except KeyError:
            raise TopologyError("no system %r in fleet" % system_id) from None

    def system_rows(self, system_ids: Sequence[str]) -> np.ndarray:
        """Rows of the given system ids (-1 for an id the fleet lacks)."""
        index = self._system_index
        return np.fromiter(
            (index.get(system_id, -1) for system_id in system_ids),
            dtype=np.int64,
            count=len(system_ids),
        )

    # -- selection -------------------------------------------------------------

    @functools.cached_property
    def _where_columns(self) -> Dict[str, np.ndarray]:
        """The per-system values :meth:`where` compares, as arrays."""
        families = [model.partition("-") for model in self.disk_models]
        return {
            "system_class": np.array([c.value for c in self.system_classes], dtype=str),
            "shelf_model": np.array(self.shelf_models, dtype=str),
            "disk_model": np.array(self.disk_models, dtype=str),
            # A model is "<family>-<capacity rank>" (repro.topology.models).
            "disk_family": np.array([f if sep else "" for f, sep, _ in families], dtype=str),
        }

    def where(
        self,
        system_class: Optional[SystemClass] = None,
        shelf_model: Optional[str] = None,
        disk_model: Optional[str] = None,
        disk_family: Optional[str] = None,
        dual_path: Optional[bool] = None,
    ) -> np.ndarray:
        """The systems matching every given value, as a mask over rows.

        Omitted arguments match every system.  Masks combine with
        ``&``, ``|`` and ``~``; they are how analyses pick systems.
        """
        mask = np.ones(self.system_count, dtype=bool)
        columns = self._where_columns
        for name, value in (
            ("system_class", None if system_class is None else system_class.value),
            ("shelf_model", shelf_model),
            ("disk_model", disk_model),
            ("disk_family", disk_family),
        ):
            if value is not None:
                mask &= columns[name] == value
        if dual_path is not None:
            mask &= self.dual_path == bool(dual_path)
        return mask

    # -- systems -------------------------------------------------------------

    @functools.cached_property
    def systems(self) -> List[StorageSystem]:
        """All systems, in fleet order, as views of the arrays."""
        return [
            StorageSystem.fleet_row(self, index, *row)
            for index, row in enumerate(
                zip(
                    self.system_ids,
                    self.system_classes,
                    self.shelf_models,
                    self.disk_models,
                    self.dual_path.tolist(),
                    self.deploy_time.tolist(),
                )
            )
        ]

    def system(self, system_id: str) -> StorageSystem:
        """Find a system by id."""
        return self.systems[self.system_index(system_id)]

    # -- object graphs, on demand ---------------------------------------------

    def build_objects(self, index: int) -> Tuple[List[Shelf], List[RAIDGroup]]:
        """Shelf, bay, disk and RAID-group objects of one system.

        Called by the system's view on first access; the fleet remembers
        which systems have objects so a change to the arrays can drop
        them.
        """
        system_id = self.system_ids[index]
        disk_model = self.disk_models[index]
        shelf_model = self.shelf_models[index]
        first_shelf = int(self.system_shelf_start[index])
        last_shelf = int(self.system_shelf_start[index + 1])
        first_slot, last_slot = self._system_slots(index)
        slot_range = np.arange(first_slot, last_slot)
        group_ids = self.slot_group_ids(slot_range)
        shelf_ids = self.shelf_ids[first_shelf:last_shelf]
        shelves: List[Shelf] = []
        slots: List[DiskSlot] = []
        for shelf in range(first_shelf, last_shelf):
            shelf_id = shelf_ids[shelf - first_shelf]
            base = int(self.shelf_slot_start[shelf])
            bays = [
                DiskSlot(shelf_id, local, group_ids[base + local - first_slot])
                for local in range(int(self.shelf_n_slots[shelf]))
            ]
            shelves.append(
                Shelf(shelf_id=shelf_id, model=shelf_model, system_id=system_id, slots=bays)
            )
            slots.extend(bays)
        first_row, last_row = self._system_rows(index)
        rows = slice(first_row, last_row)
        for slot_index, gen, install, remove, serial in zip(
            self.disk_slot[rows].tolist(),
            self.disk_gen[rows].tolist(),
            self.disk_install[rows].tolist(),
            self.disk_remove[rows].tolist(),
            self.disk_serial[rows].tolist(),
        ):
            slot = slots[slot_index - first_slot]
            slot.disks.append(
                Disk(
                    disk_id="%s#%d" % (slot.slot_key, gen),
                    model=disk_model,
                    system_id=system_id,
                    shelf_id=slot.shelf_id,
                    slot_index=slot.slot_index,
                    raid_group_id=slot.raid_group_id,
                    install_time=install,
                    remove_time=None if remove == np.inf else remove,
                    serial=serial_text(serial),
                )
            )
        groups = self._build_groups(index, slot_range, slots)
        self._built.add(index)
        return shelves, groups

    def _build_groups(
        self, index: int, slot_range: np.ndarray, slots: List[DiskSlot]
    ) -> List[RAIDGroup]:
        first_slot = int(slot_range[0]) if slot_range.size else 0
        members = self.group_members(slot_range)
        system_id = self.system_ids[index]
        first = int(self.system_group_start[index])
        last = int(self.system_group_start[index + 1])
        return [
            RAIDGroup(
                raid_group_id=self.group_ids[group],
                system_id=system_id,
                raid_type=RAID_TYPES[int(self.group_raid_type[group])],
                slot_keys=[
                    slots[slot - first_slot].slot_key
                    for slot in members.get(group, [])
                ],
            )
            for group in range(first, last)
        ]

    def group_members(self, slots: np.ndarray) -> Dict[int, List[int]]:
        """The bays among ``slots`` of each RAID group, in layout order."""
        ordered = self.group_layout(slots)
        members: Dict[int, List[int]] = {}
        for slot, group in zip(ordered.tolist(), self.slot_group[ordered].tolist()):
            members.setdefault(group, []).append(slot)
        return members

    def group_layout(self, slots: np.ndarray) -> np.ndarray:
        """``slots`` sorted by RAID group (ungrouped bays first), each
        group's bays in layout order.

        Layout order is slot-major across shelves (the Fig. 8 run
        order), which is bay order for a group within one shelf.
        """
        shelves = self.slot_shelf[slots]
        local = slots - self.shelf_slot_start[shelves]
        return slots[np.lexsort((shelves, local, self.slot_group[slots]))]

    def iter_shelves(self) -> Iterator[Shelf]:
        """All shelf enclosures in the fleet (builds their objects)."""
        for system in self.systems:
            yield from system.shelves

    def iter_raid_groups(self) -> Iterator[RAIDGroup]:
        """All RAID groups in the fleet (builds their objects)."""
        for system in self.systems:
            yield from system.raid_groups

    def iter_disks(self) -> Iterator[Disk]:
        """All disks ever installed in the fleet (builds their objects)."""
        for system in self.systems:
            yield from system.iter_disks()

    # -- lifetime changes ------------------------------------------------------

    def record_lifetimes(
        self,
        removed_slot: np.ndarray,
        removed_gen: np.ndarray,
        removed_at: np.ndarray,
        new_slot: np.ndarray,
        new_gen: np.ndarray,
        new_install: np.ndarray,
        new_serial: np.ndarray,
    ) -> None:
        """Install replacement disks and set removal times, in one merge.

        New rows enter in service; removals may name them.  Systems'
        built objects are dropped, since they no longer match.
        """
        span = int(max(self.disk_gen.max(initial=0), np.max(new_gen, initial=0))) + 1
        if new_slot.size:
            new_key = new_slot * span + new_gen
            order = np.argsort(new_key, kind="stable")
            at = np.searchsorted(self.disk_slot * span + self.disk_gen, new_key[order])
            for name, values in zip(
                _DISK_COLUMNS,
                (new_slot, new_gen, new_install, np.full(new_slot.size, np.inf), new_serial),
            ):
                column = getattr(self, name)
                setattr(self, name, np.insert(column, at, values[order].astype(column.dtype)))
        if removed_slot.size:
            keys = self.disk_slot * span + self.disk_gen
            want = removed_slot * span + removed_gen
            rows = np.searchsorted(keys, want)
            if not np.array_equal(keys[np.minimum(rows, keys.size - 1)], want):
                raise TopologyError("removal of a disk that was never installed")
            self.disk_remove[rows] = removed_at
        self._lifetimes_changed()

    def _lifetimes_changed(self) -> None:
        self._lifetime_cache.clear()
        if self._built:
            systems = self.systems
            for index in self._built:
                systems[index].drop_objects()
            self._built.clear()

    # -- exposure --------------------------------------------------------------

    def exposure_column(self, window_end: Optional[float] = None) -> np.ndarray:
        """Per-system disk-seconds of exposure up to ``window_end``.

        Each system sums its disks one by one in bay and generation
        order, bit-identical to walking its disk objects.  Cached at the
        fleet's own window end, and shared with every :meth:`select`ed
        subset.
        """
        end = self.duration_seconds if window_end is None else float(window_end)
        cached = self._lifetime_cache.get(("exposure", end))
        if cached is None:
            service = np.maximum(
                0.0, np.minimum(self.disk_remove, end) - self.disk_install
            )
            cached = np.bincount(
                self.slot_system[self.disk_slot],
                weights=service,
                minlength=self.system_count,
            )
            if end == self.duration_seconds:
                self._lifetime_cache[("exposure", end)] = cached
        return cached

    def system_exposure_seconds(self, index: int, window_end: float) -> float:
        """One system's exposure (see :meth:`exposure_column`)."""
        if float(window_end) == self.duration_seconds:
            return float(self.exposure_column()[index])
        first, last = self._system_rows(index)
        service = np.maximum(
            0.0,
            np.minimum(self.disk_remove[first:last], window_end)
            - self.disk_install[first:last],
        )
        return sequential_sum(service)

    def disk_exposure_seconds(self, window_end: Optional[float] = None) -> float:
        """Total disk-seconds of exposure up to ``window_end`` (disk-time)."""
        return sequential_sum(self.exposure_column(window_end))

    # -- subsets and unions ------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "Fleet":
        """A fleet of the given systems, in the given order."""
        index = np.asarray(indices, dtype=np.int64)
        shelves = _ranges(self.system_shelf_start[index], self.system_shelf_start[index + 1])
        slots = _ranges(self.shelf_slot_start[shelves], self.shelf_slot_start[shelves + 1])
        groups = _ranges(self.system_group_start[index], self.system_group_start[index + 1])
        starts = self.slot_disk_start
        rows = _ranges(starts[slots], starts[slots + 1])
        new_slot = np.full(self.slot_count, -1, dtype=np.int64)
        new_slot[slots] = np.arange(slots.size)
        # One spare entry: ungrouped bays (-1) index it and stay -1.
        new_group = np.full(self.raid_group_count + 1, -1, dtype=np.int64)
        new_group[groups] = np.arange(groups.size)
        picked = index.tolist()
        fleet = Fleet.from_columns(
            self.duration_seconds,
            **{name: [getattr(self, name)[i] for i in picked] for name in _LIST_COLUMNS},
            dual_path=self.dual_path[index],
            deploy_time=self.deploy_time[index],
            system_shelf_start=offsets(np.diff(self.system_shelf_start)[index]),
            shelf_slot_start=offsets(self.shelf_n_slots[shelves]),
            system_group_start=offsets(np.diff(self.system_group_start)[index]),
            group_raid_type=self.group_raid_type[groups],
            slot_group=new_group[self.slot_group[slots]],
            disk_slot=new_slot[self.disk_slot[rows]],
            **{name: getattr(self, name)[rows] for name in _DISK_COLUMNS[1:]},
            shelf_ids=_pick(self._shelf_ids, shelves),
            group_ids=_pick(self._group_ids, groups),
        )
        cached = self._lifetime_cache.get(("exposure", self.duration_seconds))
        if cached is not None:
            fleet._lifetime_cache[("exposure", self.duration_seconds)] = cached[index]
        return fleet

    @classmethod
    def concat(cls, parts: Sequence["Fleet"], duration_seconds: float) -> "Fleet":
        """The union of fleets with distinct systems, parts in order."""
        parts = list(parts)

        def joined(arrays) -> np.ndarray:
            return np.concatenate(list(arrays)) if parts else np.zeros(0)

        def column(name: str, shift_by: Optional[str] = None) -> np.ndarray:
            if shift_by is None:
                return joined(getattr(p, name) for p in parts)
            return joined(
                getattr(p, name) + shift
                for p, shift in zip(parts, _shifts(parts, shift_by))
            )

        def starts(name: str) -> np.ndarray:
            return offsets(joined(np.diff(getattr(p, name)) for p in parts))

        group_shifts = _shifts(parts, "raid_group_count")
        explicit = any(p._shelf_ids is not None or p._group_ids is not None for p in parts)
        return cls.from_columns(
            duration_seconds,
            **{name: [v for p in parts for v in getattr(p, name)] for name in _LIST_COLUMNS},
            dual_path=column("dual_path"),
            deploy_time=column("deploy_time"),
            system_shelf_start=starts("system_shelf_start"),
            shelf_slot_start=starts("shelf_slot_start"),
            system_group_start=starts("system_group_start"),
            group_raid_type=column("group_raid_type"),
            slot_group=joined(
                np.where(p.slot_group >= 0, p.slot_group + shift, -1)
                for p, shift in zip(parts, group_shifts)
            ),
            disk_slot=column("disk_slot", "slot_count"),
            **{name: column(name) for name in _DISK_COLUMNS[1:]},
            shelf_ids=[i for p in parts for i in p.shelf_ids] if explicit else None,
            group_ids=[i for p in parts for i in p.group_ids] if explicit else None,
        )


_SHELF_ID = "sh-%s-%02d"
_GROUP_ID = "rg-%s-%04d"


def _render_ids(
    pattern: str, system_ids: List[str], starts: np.ndarray, items: np.ndarray
) -> List[str]:
    """``pattern % (system id, index within the system)`` per item, for
    items numbered per system by ``starts``."""
    # The last system starting at or before an item owns it (systems
    # with no items share the start of the next one).
    owner = np.searchsorted(starts, items, side="right") - 1
    return [
        pattern % (system_ids[system], local)
        for system, local in zip(owner.tolist(), (items - starts[owner]).tolist())
    ]


def _shifts(parts: Sequence[Fleet], size_of: str) -> List[int]:
    """Per part, the summed ``size_of`` of the parts before it."""
    shifts, total = [], 0
    for part in parts:
        shifts.append(total)
        total += getattr(part, size_of)
    return shifts


def _pick(values: Optional[List[str]], index: np.ndarray) -> Optional[List[str]]:
    return None if values is None else [values[i] for i in index.tolist()]


def _compact(values: np.ndarray) -> np.ndarray:
    """Integers in the smallest dtype that holds them."""
    if values.size == 0:
        return values
    low, high = int(values.min()), int(values.max())
    return values.astype(np.result_type(np.min_scalar_type(low), np.min_scalar_type(high)))


def _sparse(values: np.ndarray, default) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, values)`` where ``values`` differs from ``default``."""
    rows = np.flatnonzero(values != default)
    return _compact(rows), values[rows]


def _dense(pair: Tuple[np.ndarray, np.ndarray], default: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_sparse`, given the dense default."""
    rows, values = pair
    out = np.array(default, copy=True)
    out[rows.astype(np.int64)] = values
    return out


def _pack(systems: Sequence[StorageSystem]) -> Dict[str, object]:
    """Columns of hand-built systems (see :class:`Fleet`)."""
    ids = [system.system_id for system in systems]
    if len(set(ids)) != len(ids):
        raise TopologyError("duplicate system ids in fleet")
    shelf_counts: List[int] = []
    shelf_slots: List[int] = []
    shelf_ids: List[str] = []
    group_counts: List[int] = []
    group_ids: List[str] = []
    group_types: List[int] = []
    slot_group: List[int] = []
    disks: List[Tuple[int, int, float, float, int]] = []
    for system in systems:
        groups = {
            group.raid_group_id: len(group_ids) + local
            for local, group in enumerate(system.raid_groups)
        }
        for group in system.raid_groups:
            group_ids.append(group.raid_group_id)
            group_types.append(RAID_TYPES.index(group.raid_type))
        group_counts.append(len(system.raid_groups))
        shelf_counts.append(len(system.shelves))
        for shelf in system.shelves:
            if shelf.model != system.shelf_model:
                raise TopologyError(
                    "shelf %s model %r differs from system %s's %r"
                    % (shelf.shelf_id, shelf.model, system.system_id, system.shelf_model)
                )
            shelf_ids.append(shelf.shelf_id)
            shelf_slots.append(len(shelf.slots))
            for position, slot in enumerate(shelf.slots):
                if slot.slot_key != "%s/%02d" % (shelf.shelf_id, position):
                    raise TopologyError(
                        "bay %s is not bay %02d of shelf %s"
                        % (slot.slot_key, position, shelf.shelf_id)
                    )
                slot_index = len(slot_group)
                if slot.raid_group_id and slot.raid_group_id not in groups:
                    raise TopologyError(
                        "bay %s names unknown RAID group %r"
                        % (slot.slot_key, slot.raid_group_id)
                    )
                slot_group.append(groups.get(slot.raid_group_id, -1))
                for disk in slot.disks:
                    disks.append(_disk_row(system, slot, slot_index, disk))
    rows = list(zip(*disks)) if disks else [()] * len(_DISK_COLUMNS)
    return dict(
        system_ids=ids,
        system_classes=[s.system_class for s in systems],
        shelf_models=[s.shelf_model for s in systems],
        disk_models=[s.primary_disk_model for s in systems],
        dual_path=[s.dual_path for s in systems],
        deploy_time=[s.deploy_time for s in systems],
        system_shelf_start=offsets(shelf_counts),
        shelf_slot_start=offsets(shelf_slots),
        system_group_start=offsets(group_counts),
        group_raid_type=group_types,
        slot_group=slot_group,
        **dict(zip(_DISK_COLUMNS, rows)),
        shelf_ids=shelf_ids,
        group_ids=group_ids,
    )


def _disk_row(system, slot, slot_index, disk) -> Tuple[int, int, float, float, int]:
    prefix, _, gen = disk.disk_id.rpartition("#")
    if prefix != slot.slot_key or not gen.isdigit():
        raise TopologyError(
            "disk id %r is not <bay key>#<generation> of bay %s"
            % (disk.disk_id, slot.slot_key)
        )
    if disk.model != system.primary_disk_model:
        raise TopologyError(
            "disk %s model %r differs from system %s's %r"
            % (disk.disk_id, disk.model, system.system_id, system.primary_disk_model)
        )
    remove = np.inf if disk.remove_time is None else disk.remove_time
    return slot_index, int(gen), disk.install_time, remove, serial_value(disk.serial)
