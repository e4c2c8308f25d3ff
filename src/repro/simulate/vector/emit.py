"""Columnar emission: vector-engine output without per-event objects.

Three responsibilities sit at the boundary between the batched
simulation and the rest of the library:

* :func:`build_event_table` — globally sort the engine's one fleet-wide
  block of delivered failures by detection time and pack it straight
  into an :class:`~repro.core.columns.EventTable` via its bulk
  constructor.  Identifier strings are produced per *unique bay*, not
  per event.
* :class:`RecoveredBatch` — recovered (masked / retried) incidents kept
  as flat arrays; the :class:`~repro.failures.events.ComponentError`
  dataclasses the log writer wants are materialized only on demand.
* :func:`record_chains` — write disk removals and replacement
  installs into the fleet's lifetime table, so downstream exposure
  accounting sees every disk's service span.

Both the block and the batch are filled stage by stage over every
cohort at once; each keeps, per cohort, the order a cohort-at-a-time
run would produce, so tables, lifetimes and logs do not depend on the
stage-major execution.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columns import EventTable
from repro.failures.events import ComponentError
from repro.failures.raidlayer import component_errors_for_recovery
from repro.failures.types import ALL_FAILURE_TYPES
from repro.fleet.fleet import Fleet
from repro.simulate.vector.cohorts import CohortSet, first_appearance
from repro.simulate.vector.queueing import DiskChain


@dataclasses.dataclass
class DeliveredEvents:
    """Every cohort's delivered failures, as parallel arrays.

    ``slot``/``gen`` identify the failed-or-afflicted disk; the row's
    cohort supplies every per-system constant (class, models, path
    flag).  The engine hands these over cohort-major, each cohort's
    rows in detection order.
    """

    cohort: np.ndarray
    slot: np.ndarray
    gen: np.ndarray
    occur: np.ndarray
    detect: np.ndarray
    type_code: np.ndarray
    cause_code: np.ndarray
    replaced: np.ndarray

    def __len__(self) -> int:
        return int(self.detect.shape[0])

    @classmethod
    def concat(cls, parts: List["DeliveredEvents"]) -> "DeliveredEvents":
        return cls(
            *(
                np.concatenate([getattr(part, field.name) for part in parts])
                for field in dataclasses.fields(cls)
            )
        )

    def take(self, rows: np.ndarray) -> "DeliveredEvents":
        return DeliveredEvents(
            *(getattr(self, field.name)[rows] for field in dataclasses.fields(self))
        )


def _dedup(
    codes: np.ndarray, values: List[str]
) -> Tuple[np.ndarray, List[str]]:
    """Merge duplicate strings in a provisional (codes, values) column.

    Distinct integer keys may share a value — ungrouped bays, cohorts of
    one disk model — and :class:`StringTable` codes must be per distinct
    *string*.
    """
    index = {}
    remap = np.empty(len(values), dtype=np.int64)
    merged: List[str] = []
    for provisional, value in enumerate(values):
        code = index.get(value)
        if code is None:
            code = len(merged)
            index[value] = code
            merged.append(value)
        remap[provisional] = code
    if len(merged) == len(values):
        return codes, values
    return remap[codes], merged


def build_event_table(
    fleet: Fleet, cohorts: CohortSet, events: DeliveredEvents
) -> EventTable:
    """Pack the fleet-wide block into one detection-sorted EventTable.

    A stable sort of the cohort-major block by detection time orders
    the rows exactly as concatenating per-cohort blocks would.  Every
    string column is derived from integer topology keys (slot, shelf,
    system, cohort indices); the only Python-level string work is one
    render per unique key, never per event row.
    """
    if not len(events):
        return EventTable.empty()

    order = np.argsort(events.detect, kind="stable")
    slot = events.slot[order]
    gen = events.gen[order]
    cohort = events.cohort[order]
    sys_index = fleet.shelf_system[fleet.slot_shelf[slot]]

    # disk_id: keyed by the (bay, generation) pair, packed into one
    # integer; distinct pairs give distinct ids, so no dedup needed.
    gen_span = int(gen.max()) + 1 if gen.size else 1
    disk_keys, disk_codes = first_appearance(slot * gen_span + gen)
    disk_slots = disk_keys // gen_span
    disk_shelves = fleet.slot_shelf[disk_slots]
    # A shelf first appears with the first row of some disk on it, so
    # its first appearance over disks and over rows agree.
    shelf_keys, disk_shelf = first_appearance(disk_shelves)
    shelf_codes = disk_shelf[disk_codes]
    shelf_values = fleet.shelf_ids_of(shelf_keys)
    bays = (disk_slots - fleet.shelf_slot_start[disk_shelves]).tolist()
    # Fleet.disk_ids' "<shelf id>/<bay>#<generation>", rendered from
    # the shelf ids already in hand.
    disk_values = [
        "%s/%02d#%d" % (shelf_values[h], k, g)
        for h, k, g in zip(disk_shelf.tolist(), bays, (disk_keys % gen_span).tolist())
    ]

    sys_keys, sys_codes = first_appearance(sys_index)
    sys_values = [fleet.system_ids[s] for s in sys_keys.tolist()]
    group_keys, group_codes = first_appearance(fleet.slot_group[slot])
    raid = _dedup(group_codes, fleet.group_ids_of(group_keys))
    cohort_keys, cohort_codes = first_appearance(cohort)
    keys = [cohorts.keys[c] for c in cohort_keys.tolist()]
    classes = _dedup(cohort_codes, [key[0].value for key in keys])
    disk_models = _dedup(cohort_codes, [key[2] for key in keys])
    shelf_models = _dedup(cohort_codes, [key[1] for key in keys])

    return EventTable.from_columns(
        occur_time=events.occur[order],
        detect_time=events.detect[order],
        type_codes=events.type_code[order],
        cause_codes=events.cause_code[order],
        dual_path=cohorts.dual_path[cohort],
        replaced_disk=events.replaced[order],
        disk_id=(disk_codes, disk_values),
        shelf_id=(shelf_codes, shelf_values),
        raid_group_id=raid,
        system_id=(sys_codes, sys_values),
        system_class=classes,
        disk_model=disk_models,
        shelf_model=shelf_models,
        sorted_by_detect=True,
    )


class RecoveredBatch:
    """Recovered incidents as flat arrays; dataclasses on demand.

    Every recovered incident expands to exactly three
    :class:`ComponentError` records (two cascade-prefix events plus the
    recovery terminal — see
    :func:`repro.failures.raidlayer.component_errors_for_recovery`), so
    the count is known without materializing anything.

    Incidents arrive stage by stage (masked faults type by type, then
    precursors, then background noise), each stage over every cohort.
    :meth:`incidents` restores the order a cohort-at-a-time run records
    them in — per cohort, the stages in arrival order, each stage's rows
    by failure type; :meth:`materialize` expands them in that order
    before its stable time sort, so records with equal times keep it.
    """

    def __init__(self, fleet: Fleet) -> None:
        self._fleet = fleet
        self._chunks: List[Tuple[np.ndarray, ...]] = []
        self._incidents = 0
        self._ordered: Optional[Tuple[np.ndarray, ...]] = None

    def add(
        self,
        cohort: np.ndarray,
        type_codes: np.ndarray,
        time: np.ndarray,
        slot: np.ndarray,
        gen: np.ndarray,
    ) -> None:
        """Append one stage's incidents, cohort-major, with per-row types."""
        if time.size == 0:
            return
        self._chunks.append((cohort, type_codes, time, slot, gen))
        self._incidents += int(time.size)
        self._ordered = None

    def __len__(self) -> int:
        return 3 * self._incidents

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_ordered"] = None  # derived; rebuilt on first use
        return state

    def incidents(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(type codes, times, bays, generations)`` per incident, in
        the cohort-at-a-time order (class docstring)."""
        if self._ordered is None:
            if not self._chunks:
                empty = np.zeros(0, dtype=np.int64)
                self._ordered = (empty, empty.astype(np.float64), empty, empty)
                return self._ordered
            arrival = np.repeat(
                np.arange(len(self._chunks)), [chunk[2].size for chunk in self._chunks]
            )
            cohort, type_codes, times, slots, gens = (
                np.concatenate([chunk[column] for chunk in self._chunks])
                for column in range(5)
            )
            order = np.lexsort((type_codes, arrival, cohort))
            self._ordered = (type_codes[order], times[order], slots[order], gens[order])
        return self._ordered

    def materialize(self) -> List[ComponentError]:
        """Expand to time-sorted ComponentError dataclasses."""
        type_codes, times, slots, gens = self.incidents()
        errors: List[ComponentError] = []
        keys = self._fleet.slot_keys(slots)
        for code, t, key, g in zip(type_codes.tolist(), times.tolist(), keys, gens.tolist()):
            errors.extend(
                component_errors_for_recovery(
                    ALL_FAILURE_TYPES[code], "%s#%d" % (key, g), t
                )
            )
        errors.sort(key=lambda error: error.time)
        return errors


def record_chains(fleet: Fleet, chain: DiskChain) -> None:
    """Write the chain's disk removals and replacements into the fleet."""
    fleet.record_lifetimes(
        removed_slot=chain.ev_slot,
        removed_gen=chain.ev_gen,
        removed_at=chain.ev_detect,
        new_slot=chain.rep_slot,
        new_gen=chain.rep_gen,
        new_install=chain.rep_install,
        new_serial=chain.rep_serial,
    )
