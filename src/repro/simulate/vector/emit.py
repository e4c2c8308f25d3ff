"""Columnar emission: vector-engine output without per-event objects.

Three responsibilities sit at the boundary between the batched
simulation and the rest of the library:

* :func:`build_event_table` — concatenate per-cohort event blocks,
  globally sort by detection time, and pack them straight into an
  :class:`~repro.core.columns.EventTable` via its bulk constructor.
  Identifier strings are produced per *unique bay*, not per event.
* :class:`RecoveredBatch` — recovered (masked / retried) incidents kept
  as flat arrays; the :class:`~repro.failures.events.ComponentError`
  dataclasses the log writer wants are materialized only on demand.
* :func:`record_chains` — write disk removals and replacement
  installs into the fleet's lifetime table, so downstream exposure
  accounting sees the same lifetimes the legacy injector produces.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.core.columns import EventTable
from repro.failures.events import ComponentError
from repro.failures.raidlayer import component_errors_for_recovery
from repro.failures.types import ALL_FAILURE_TYPES, FailureType
from repro.fleet.fleet import Fleet
from repro.simulate.vector.cohorts import Cohort
from repro.simulate.vector.queueing import DiskChain

_TYPE_CODE = {
    failure_type: code for code, failure_type in enumerate(ALL_FAILURE_TYPES)
}


@dataclasses.dataclass
class EventBlock:
    """One cohort's delivered failures, as parallel arrays.

    ``slot``/``gen`` identify the failed-or-afflicted disk; the cohort
    supplies every per-system constant (class, models, path flag).
    """

    cohort: Cohort
    slot: np.ndarray
    gen: np.ndarray
    occur: np.ndarray
    detect: np.ndarray
    type_code: np.ndarray
    cause_code: np.ndarray
    replaced: np.ndarray

    def __len__(self) -> int:
        return int(self.detect.shape[0])


def _first_appearance(row_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unique integer keys in first-appearance order, plus per-row codes.

    The unique pass runs on integers — no per-row strings, no
    object-array sort — and the code assignment matches what sequential
    per-row interning would produce.
    """
    uniq, first, inverse = np.unique(
        row_keys, return_index=True, return_inverse=True
    )
    rank = np.argsort(first, kind="stable")
    code_of_key = np.empty(rank.size, dtype=np.int64)
    code_of_key[rank] = np.arange(rank.size)
    return uniq[rank], code_of_key[inverse]


def _dedup(
    codes: np.ndarray, values: List[str]
) -> Tuple[np.ndarray, List[str]]:
    """Merge duplicate strings in a provisional (codes, values) column.

    Distinct integer keys may share a value — bays of one RAID group,
    cohorts of one disk model — and :class:`StringTable` codes must be
    per distinct *string*.
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


def build_event_table(fleet: Fleet, blocks: List[EventBlock]) -> EventTable:
    """Pack cohort event blocks into one detection-sorted EventTable.

    Every string column is derived from integer topology keys (slot,
    shelf, system, cohort indices); the only Python-level string work is
    one render per unique key, never per event row.
    """
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return EventTable.empty()

    occur = np.concatenate([b.occur for b in blocks])
    detect = np.concatenate([b.detect for b in blocks])
    slot = np.concatenate([b.slot for b in blocks])
    gen = np.concatenate([b.gen for b in blocks])
    type_codes = np.concatenate([b.type_code for b in blocks])
    cause_codes = np.concatenate([b.cause_code for b in blocks])
    replaced = np.concatenate([b.replaced for b in blocks])
    block_row = np.repeat(
        np.arange(len(blocks), dtype=np.int64),
        [len(b) for b in blocks],
    )

    order = np.argsort(detect, kind="stable")
    slot = slot[order]
    gen = gen[order]
    block_row = block_row[order]
    shelf_index = fleet.slot_shelf[slot]
    sys_index = fleet.shelf_system[shelf_index]
    cohorts = [b.cohort for b in blocks]

    # disk_id: keyed by the (bay, generation) pair, packed into one
    # integer; distinct pairs give distinct ids, so no dedup needed.
    gen_span = int(gen.max()) + 1 if gen.size else 1
    disk_keys, disk_codes = _first_appearance(slot * gen_span + gen)
    key_gens = (disk_keys % gen_span).tolist()
    slot_key_list = fleet.slot_keys(disk_keys // gen_span)
    disk_values = [
        "%s#%d" % (k, g) for k, g in zip(slot_key_list, key_gens)
    ]

    shelf_keys, shelf_codes = _first_appearance(shelf_index)
    shelf_ids = fleet.shelf_ids
    shelf_values = [shelf_ids[s] for s in shelf_keys.tolist()]
    sys_keys, sys_codes = _first_appearance(sys_index)
    sys_values = [fleet.system_ids[s] for s in sys_keys.tolist()]
    raid_keys, raid_codes = _first_appearance(slot)
    raid = _dedup(raid_codes, fleet.slot_group_ids(raid_keys))
    blk_keys, blk_codes = _first_appearance(block_row)
    blk_list = blk_keys.tolist()
    classes = _dedup(
        blk_codes, [cohorts[b].system_class.value for b in blk_list]
    )
    disk_models = _dedup(
        blk_codes, [cohorts[b].disk_model for b in blk_list]
    )
    shelf_models = _dedup(
        blk_codes, [cohorts[b].shelf_model for b in blk_list]
    )

    dual = np.asarray([c.dual_path for c in cohorts], dtype=bool)[block_row]
    return EventTable.from_columns(
        occur_time=occur[order],
        detect_time=detect[order],
        type_codes=type_codes[order],
        cause_codes=cause_codes[order],
        dual_path=dual,
        replaced_disk=replaced[order],
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
    """

    def __init__(self, fleet: Fleet) -> None:
        self._fleet = fleet
        self._chunks: List[
            Tuple[FailureType, np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self._incidents = 0

    def add(
        self,
        failure_type: FailureType,
        time: np.ndarray,
        slot: np.ndarray,
        gen: np.ndarray,
    ) -> None:
        """Append a batch of recovered incidents of one type."""
        if time.size == 0:
            return
        self._chunks.append((failure_type, time, slot, gen))
        self._incidents += int(time.size)

    def add_mixed(
        self,
        type_codes: np.ndarray,
        time: np.ndarray,
        slot: np.ndarray,
        gen: np.ndarray,
    ) -> None:
        """Append incidents with per-row failure types (background noise)."""
        for code, failure_type in enumerate(ALL_FAILURE_TYPES):
            rows = np.flatnonzero(type_codes == code)
            if rows.size:
                self.add(failure_type, time[rows], slot[rows], gen[rows])

    def __len__(self) -> int:
        return 3 * self._incidents

    def materialize(self) -> List[ComponentError]:
        """Expand to time-sorted ComponentError dataclasses."""
        errors: List[ComponentError] = []
        if not self._chunks:
            return errors
        # One key rendering for every chunk: chunks are many and small.
        all_keys = self._fleet.slot_keys(
            np.concatenate([slots for _, _, slots, _ in self._chunks])
        )
        start = 0
        for failure_type, times, slots, gens in self._chunks:
            keys = all_keys[start : start + slots.size]
            start += slots.size
            for t, key, g in zip(times, keys, gens):
                disk_id = "%s#%d" % (key, int(g))
                errors.extend(
                    component_errors_for_recovery(
                        failure_type, disk_id, float(t)
                    )
                )
        errors.sort(key=lambda error: error.time)
        return errors


def record_chains(fleet: Fleet, chains: List[DiskChain]) -> None:
    """Write the chains' disk removals and replacements into the fleet."""

    def joined(name: str, dtype) -> np.ndarray:
        return np.concatenate(
            [getattr(chain, name) for chain in chains] + [np.zeros(0, dtype)]
        )

    fleet.record_lifetimes(
        removed_slot=joined("ev_slot", np.int64),
        removed_gen=joined("ev_gen", np.int64),
        removed_at=joined("ev_detect", np.float64),
        new_slot=joined("rep_slot", np.int64),
        new_gen=joined("rep_gen", np.int64),
        new_install=joined("rep_install", np.float64),
        new_serial=joined("rep_serial", np.uint64),
    )
