"""The columnar event core: a structure-of-arrays failure event table.

Every statistic in the paper — the Fig. 4-7 AFR stacks, the Fig. 9
time-between-failure CDFs, the Fig. 10 P(2) correlation checks — is an
aggregation over one flat event table.  Storing that table as a Python
list of :class:`~repro.failures.events.FailureEvent` dataclasses makes
every aggregation an attribute-chasing interpreter loop; storing it as
NumPy columns makes them bulk array reductions (``np.bincount``,
sorted-segment diffs), which is how the analyses scale to
production-size fleets.

:class:`EventTable` holds:

- ``occur_time`` / ``detect_time`` — ``float64`` arrays (seconds since
  study start);
- ``type_codes`` / ``cause_codes`` / ``class_codes`` — small-int codes
  into the fixed enum orders (``cause`` uses ``-1`` for "none");
- ``disk_codes`` / ``shelf_codes`` / ``raid_group_codes`` /
  ``system_codes`` / ``disk_model_codes`` / ``shelf_model_codes`` —
  integer codes into per-table interned :class:`StringTable`\\ s;
- ``dual_path`` / ``replaced_disk`` — boolean arrays.

The table is immutable by convention: every transformation
(:meth:`select`, :meth:`sorted_by_detect`, :meth:`dedup_indices`)
returns indices or a new table sharing the string tables.  The original
:class:`FailureEvent` objects remain available as a **lazy materialized
view** (:meth:`events` / :meth:`rows`); when the table was built from an
existing event sequence the view is the very same objects, so code that
still walks dataclasses sees no copies.

Every analysis aggregates over these columns.  Group-bys enumerate
units in first-occurrence order (:func:`first_occurrence_ranks`), so
pooled float reductions come out in one fixed order: units by their
first failure, each unit's failures by detection time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.failures.events import FailureEvent
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    FailureType,
    InterconnectCause,
)

#: Fixed code order for interconnect causes (code -1 = no cause).
CAUSE_ORDER: Tuple[InterconnectCause, ...] = tuple(InterconnectCause)

# Type codes follow the storage order (paper's four + extended types)
# so tables can hold operator-error rows; append-only by contract.
_TYPE_CODE: Dict[FailureType, int] = {
    failure_type: code for code, failure_type in enumerate(ALL_FAILURE_TYPES)
}
_CAUSE_CODE: Dict[InterconnectCause, int] = {
    cause: code for code, cause in enumerate(CAUSE_ORDER)
}


class StringTable:
    """An interned string table: dense integer code <-> string.

    Codes are assigned in first-intern order, so tables built from an
    event sequence enumerate ids in first-occurrence order — the group
    order every analysis pools in.
    """

    __slots__ = ("_values", "_index")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self._values: List[str] = []
        self._index: Optional[Dict[str, int]] = {}
        for value in values:
            self.intern(value)

    def _ensure_index(self) -> Dict[str, int]:
        """The string->code dict, built on first lookup.

        Bulk constructors leave ``_index`` unset — most tables are only
        ever read by code, so the dict would be pure build cost.
        """
        index = self._index
        if index is None:
            index = {value: code for code, value in enumerate(self._values)}
            self._index = index
        return index

    def intern(self, value: str) -> int:
        """The code for ``value``, assigning a new one when unseen."""
        index = self._ensure_index()
        code = index.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            index[value] = code
        return code

    def code(self, value: str) -> int:
        """The code for ``value``, or ``-1`` when absent."""
        return self._ensure_index().get(value, -1)

    def value(self, code: int) -> str:
        """The string for a code."""
        return self._values[code]

    @property
    def values(self) -> List[str]:
        """All interned strings, in code order (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __getstate__(self) -> List[str]:
        return self._values

    def __setstate__(self, values: List[str]) -> None:
        self._values = list(values)
        self._index = None


def _code_dtype(n: int):
    """Smallest signed integer dtype holding codes up to ``n``."""
    if n <= 120:
        return np.int8
    if n <= 30_000:
        return np.int16
    return np.int32


def _intern_column(values: Sequence[str], n: int):
    """Intern one string column: (codes array, string table).

    Vectorized: uniques are found with one :func:`numpy.unique` pass and
    then re-ranked by first appearance, which assigns exactly the codes
    sequential per-row interning would (first-intern order) at a fraction
    of the per-row Python cost.
    """
    if n == 0:
        return np.zeros(0, dtype=_code_dtype(0)), StringTable()
    arr = np.asarray(values, dtype=object)
    uniq, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
    rank = np.argsort(first, kind="stable")
    code_of_uniq = np.empty(rank.size, dtype=np.int64)
    code_of_uniq[rank] = np.arange(rank.size)
    table = StringTable()
    table._values = uniq[rank].tolist()
    table._index = None  # built lazily on first string lookup
    return code_of_uniq[inverse].astype(_code_dtype(len(table))), table


def _as_interned(column, n: int):
    """Codes + table for a string column given as rows or pre-coded.

    A column is either a sequence of per-row strings (interned here) or
    a ``(codes, values)`` pair — an integer code per row plus the
    distinct strings in code order — produced by a caller that already
    knows the column's structure (the vector engine derives codes from
    integer topology keys without ever building per-row strings).
    """
    if isinstance(column, tuple):
        codes, values = column
        table = StringTable()
        table._values = list(values)
        table._index = None  # built lazily on first string lookup
        if len(set(table._values)) != len(table._values):
            raise ValueError("pre-coded column values must be distinct")
        return (
            np.ascontiguousarray(codes, dtype=np.int64).astype(
                _code_dtype(len(table))
            ),
            table,
        )
    return _intern_column(column, n)


class EventTable:
    """Structure-of-arrays storage for failure events (module docstring)."""

    __slots__ = (
        "occur_time",
        "detect_time",
        "type_codes",
        "cause_codes",
        "class_codes",
        "disk_codes",
        "shelf_codes",
        "raid_group_codes",
        "system_codes",
        "disk_model_codes",
        "shelf_model_codes",
        "dual_path",
        "replaced_disk",
        "disk_ids",
        "shelf_ids",
        "raid_group_ids",
        "system_ids",
        "system_classes",
        "disk_models",
        "shelf_models",
        "_view",
        "_sorted",
    )

    def __init__(self, **columns: object) -> None:
        for name in self.__slots__:
            if name in ("_view", "_sorted"):
                continue
            setattr(self, name, columns[name])
        self._view: Optional[Tuple[FailureEvent, ...]] = columns.get("_view")
        self._sorted: Optional[bool] = columns.get("_sorted")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(
        cls, events: Sequence[FailureEvent], keep_view: bool = True
    ) -> "EventTable":
        """Columnarize an event sequence (one interning pass).

        Args:
            events: the events, in the order the table should store.
            keep_view: retain ``events`` as the materialized view, so
                :meth:`events` returns the original objects.
        """
        n = len(events)
        occur = np.empty(n, dtype=np.float64)
        detect = np.empty(n, dtype=np.float64)
        types = np.empty(n, dtype=np.int8)
        causes = np.empty(n, dtype=np.int8)
        dual = np.empty(n, dtype=bool)
        replaced = np.empty(n, dtype=bool)
        disks = np.empty(n, dtype=np.int64)
        shelves = np.empty(n, dtype=np.int64)
        groups = np.empty(n, dtype=np.int64)
        systems = np.empty(n, dtype=np.int64)
        classes = np.empty(n, dtype=np.int8)
        disk_models = np.empty(n, dtype=np.int16)
        shelf_models = np.empty(n, dtype=np.int16)
        disk_ids = StringTable()
        shelf_ids = StringTable()
        raid_group_ids = StringTable()
        system_ids = StringTable()
        system_classes = StringTable()
        disk_model_table = StringTable()
        shelf_model_table = StringTable()
        for i, event in enumerate(events):
            occur[i] = event.occur_time
            detect[i] = event.detect_time
            types[i] = _TYPE_CODE[event.failure_type]
            causes[i] = -1 if event.cause is None else _CAUSE_CODE[event.cause]
            dual[i] = event.dual_path
            replaced[i] = event.replaced_disk
            disks[i] = disk_ids.intern(event.disk_id)
            shelves[i] = shelf_ids.intern(event.shelf_id)
            groups[i] = raid_group_ids.intern(event.raid_group_id)
            systems[i] = system_ids.intern(event.system_id)
            classes[i] = system_classes.intern(event.system_class)
            disk_models[i] = disk_model_table.intern(event.disk_model)
            shelf_models[i] = shelf_model_table.intern(event.shelf_model)
        table = cls(
            occur_time=occur,
            detect_time=detect,
            type_codes=types,
            cause_codes=causes,
            class_codes=classes,
            disk_codes=disks.astype(_code_dtype(len(disk_ids))),
            shelf_codes=shelves.astype(_code_dtype(len(shelf_ids))),
            raid_group_codes=groups.astype(_code_dtype(len(raid_group_ids))),
            system_codes=systems.astype(_code_dtype(len(system_ids))),
            disk_model_codes=disk_models,
            shelf_model_codes=shelf_models,
            dual_path=dual,
            replaced_disk=replaced,
            disk_ids=disk_ids,
            shelf_ids=shelf_ids,
            raid_group_ids=raid_group_ids,
            system_ids=system_ids,
            system_classes=system_classes,
            disk_models=disk_model_table,
            shelf_models=shelf_model_table,
            _view=tuple(events) if keep_view else None,
        )
        return table

    @classmethod
    def from_columns(
        cls,
        *,
        occur_time: np.ndarray,
        detect_time: np.ndarray,
        type_codes: np.ndarray,
        cause_codes: np.ndarray,
        dual_path: np.ndarray,
        replaced_disk: np.ndarray,
        disk_id: Sequence[str],
        shelf_id: Sequence[str],
        raid_group_id: Sequence[str],
        system_id: Sequence[str],
        system_class: Sequence[str],
        disk_model: Sequence[str],
        shelf_model: Sequence[str],
        sorted_by_detect: Optional[bool] = None,
    ) -> "EventTable":
        """Bulk-build a table from parallel columns — the batch path.

        The vectorized simulation engine produces whole column arrays at
        once; this constructor packs them without ever materializing
        :class:`FailureEvent` objects.  Numeric columns are copied into
        their canonical dtypes; string columns (one Python string per
        row) are interned in row order, preserving the first-occurrence
        code convention of :meth:`from_events`.

        Args:
            occur_time / detect_time: float seconds since study start.
            type_codes: codes into ``ALL_FAILURE_TYPES``.
            cause_codes: codes into :data:`CAUSE_ORDER` (-1 = none).
            dual_path / replaced_disk: boolean rows.
            disk_id ... shelf_model: per-row strings to intern, or a
                pre-coded ``(codes, values)`` pair (see
                :func:`_as_interned`).
            sorted_by_detect: pass ``True`` when rows are known to be in
                detection-time order (skips the check on first use).
        """
        occur = np.ascontiguousarray(occur_time, dtype=np.float64)
        detect = np.ascontiguousarray(detect_time, dtype=np.float64)
        n = int(occur.shape[0])
        named = {
            "detect_time": detect,
            "type_codes": type_codes,
            "cause_codes": cause_codes,
            "dual_path": dual_path,
            "replaced_disk": replaced_disk,
            "disk_id": disk_id,
            "shelf_id": shelf_id,
            "raid_group_id": raid_group_id,
            "system_id": system_id,
            "system_class": system_class,
            "disk_model": disk_model,
            "shelf_model": shelf_model,
        }
        for name, column in named.items():
            length = len(column[0]) if isinstance(column, tuple) else len(column)
            if length != n:
                raise ValueError(
                    "column %s has %d rows, expected %d" % (name, length, n)
                )
        if n and bool(np.any(detect < occur)):
            raise ValueError("detect_time precedes occur_time in bulk columns")
        disks, disk_ids = _as_interned(disk_id, n)
        shelves, shelf_ids = _as_interned(shelf_id, n)
        groups, raid_group_ids = _as_interned(raid_group_id, n)
        systems, system_ids = _as_interned(system_id, n)
        classes, system_classes = _as_interned(system_class, n)
        disk_model_codes, disk_model_table = _as_interned(disk_model, n)
        shelf_model_codes, shelf_model_table = _as_interned(shelf_model, n)
        return cls(
            occur_time=occur,
            detect_time=detect,
            type_codes=np.ascontiguousarray(type_codes, dtype=np.int8),
            cause_codes=np.ascontiguousarray(cause_codes, dtype=np.int8),
            class_codes=classes.astype(np.int8),
            disk_codes=disks,
            shelf_codes=shelves,
            raid_group_codes=groups,
            system_codes=systems,
            disk_model_codes=disk_model_codes.astype(np.int16),
            shelf_model_codes=shelf_model_codes.astype(np.int16),
            dual_path=np.ascontiguousarray(dual_path, dtype=bool),
            replaced_disk=np.ascontiguousarray(replaced_disk, dtype=bool),
            disk_ids=disk_ids,
            shelf_ids=shelf_ids,
            raid_group_ids=raid_group_ids,
            system_ids=system_ids,
            system_classes=system_classes,
            disk_models=disk_model_table,
            shelf_models=shelf_model_table,
            _view=None,
            _sorted=sorted_by_detect,
        )

    @classmethod
    def empty(cls) -> "EventTable":
        """A zero-row table."""
        return cls.from_events(())

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.detect_time.shape[0])

    @property
    def is_sorted_by_detect(self) -> bool:
        """Whether rows are in nondecreasing detection-time order."""
        if self._sorted is None:
            self._sorted = bool(np.all(np.diff(self.detect_time) >= 0.0))
        return self._sorted

    def sorted_by_detect(self) -> "EventTable":
        """This table in detection-time order (self when already sorted)."""
        if self.is_sorted_by_detect:
            return self
        order = np.argsort(self.detect_time, kind="stable")
        table = self.select(order)
        table._sorted = True
        return table

    # -- transformation ----------------------------------------------------

    def select(self, selector: Union[np.ndarray, Sequence[int]]) -> "EventTable":
        """A new table of the selected rows (mask or index array).

        String tables are shared — codes remain valid — and a
        materialized view is carried over by indexing, so selections of
        a viewed table keep returning the original event objects.
        """
        selector = np.asarray(selector)
        if selector.dtype == bool:
            indices = np.flatnonzero(selector)
        else:
            indices = selector
        view = None
        if self._view is not None:
            view = tuple(self._view[int(i)] for i in indices)
        monotonic = None
        if self._sorted and (
            indices.size < 2 or bool(np.all(np.diff(indices) > 0))
        ):
            # A subsequence of a sorted table stays sorted.
            monotonic = True
        return EventTable(
            occur_time=self.occur_time[indices],
            detect_time=self.detect_time[indices],
            type_codes=self.type_codes[indices],
            cause_codes=self.cause_codes[indices],
            class_codes=self.class_codes[indices],
            disk_codes=self.disk_codes[indices],
            shelf_codes=self.shelf_codes[indices],
            raid_group_codes=self.raid_group_codes[indices],
            system_codes=self.system_codes[indices],
            disk_model_codes=self.disk_model_codes[indices],
            shelf_model_codes=self.shelf_model_codes[indices],
            dual_path=self.dual_path[indices],
            replaced_disk=self.replaced_disk[indices],
            disk_ids=self.disk_ids,
            shelf_ids=self.shelf_ids,
            raid_group_ids=self.raid_group_ids,
            system_ids=self.system_ids,
            system_classes=self.system_classes,
            disk_models=self.disk_models,
            shelf_models=self.shelf_models,
            _view=view,
            _sorted=monotonic,
        )

    # -- materialization ---------------------------------------------------

    def row(self, index: int) -> FailureEvent:
        """Materialize one row as a :class:`FailureEvent`."""
        if self._view is not None:
            return self._view[index]
        cause_code = int(self.cause_codes[index])
        return FailureEvent(
            occur_time=float(self.occur_time[index]),
            detect_time=float(self.detect_time[index]),
            failure_type=ALL_FAILURE_TYPES[int(self.type_codes[index])],
            disk_id=self.disk_ids.value(int(self.disk_codes[index])),
            shelf_id=self.shelf_ids.value(int(self.shelf_codes[index])),
            raid_group_id=self.raid_group_ids.value(
                int(self.raid_group_codes[index])
            ),
            system_id=self.system_ids.value(int(self.system_codes[index])),
            system_class=self.system_classes.value(int(self.class_codes[index])),
            disk_model=self.disk_models.value(int(self.disk_model_codes[index])),
            shelf_model=self.shelf_models.value(
                int(self.shelf_model_codes[index])
            ),
            dual_path=bool(self.dual_path[index]),
            cause=None if cause_code < 0 else CAUSE_ORDER[cause_code],
            replaced_disk=bool(self.replaced_disk[index]),
        )

    def rows(self, indices: Iterable[int]) -> List[FailureEvent]:
        """Materialize a subset of rows (view-reusing when available)."""
        if self._view is not None:
            return [self._view[int(i)] for i in indices]
        return [self.row(int(i)) for i in indices]

    def events(self) -> Tuple[FailureEvent, ...]:
        """The full materialized view (cached after the first call)."""
        if self._view is None:
            self._view = tuple(self.row(i) for i in range(len(self)))
        return self._view

    # -- bulk reductions ---------------------------------------------------

    def counts_by_type(self) -> np.ndarray:
        """Event counts per failure type, in ``ALL_FAILURE_TYPES`` order."""
        return np.bincount(
            self.type_codes.astype(np.int64), minlength=len(ALL_FAILURE_TYPES)
        )

    def type_mask(self, failure_type: FailureType) -> np.ndarray:
        """Boolean row mask for one failure type."""
        return self.type_codes == _TYPE_CODE[failure_type]

    def scope_codes(self, scope: str) -> Tuple[np.ndarray, StringTable]:
        """The (codes, string table) pair for a grouping scope."""
        if scope == "shelf":
            return self.shelf_codes, self.shelf_ids
        if scope == "raid_group":
            return self.raid_group_codes, self.raid_group_ids
        from repro.errors import AnalysisError

        raise AnalysisError("scope must be 'shelf' or 'raid_group'")

    def dedup_keep_mask(self, window_seconds: float) -> np.ndarray:
        """Rows surviving §5.1 duplicate collapsing (same disk + type
        within ``window_seconds`` of the last *kept* report).

        Requires detection-time order (the stored order of any table
        inside a :class:`~repro.core.dataset.FailureDataset`).  Groups
        with a single report — the overwhelming majority — are resolved
        without touching Python objects; only multi-report groups run
        the sequential window walk the semantics require.
        """
        n = len(self)
        keep = np.ones(n, dtype=bool)
        if n == 0:
            return keep
        key = self.disk_codes.astype(np.int64) * len(ALL_FAILURE_TYPES) + (
            self.type_codes.astype(np.int64)
        )
        order = np.argsort(key, kind="stable")  # detect order within key
        sorted_key = key[order]
        boundaries = np.flatnonzero(np.diff(sorted_key) != 0) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        detect = self.detect_time
        for start, end in zip(starts, ends):
            if end - start < 2:
                continue
            last_kept = detect[order[start]]
            for position in range(start + 1, end):
                index = order[position]
                t = detect[index]
                if t - last_kept < window_seconds:
                    keep[index] = False
                else:
                    last_kept = t
        return keep

    def content_digest(self) -> str:
        """SHA-256 over the table's canonical byte serialization.

        Every numeric column is hashed with a fixed dtype (independent
        of the width-adaptive code dtypes) and every string table as its
        NUL-joined value list, so two tables digest equal iff they hold
        the same events in the same stored order.  This is what the
        hazard-backend differential goldens pin: a refactor of the
        sampling layer must leave each engine's digest unchanged.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.occur_time, np.float64).tobytes())
        digest.update(np.ascontiguousarray(self.detect_time, np.float64).tobytes())
        for name in (
            "type_codes",
            "cause_codes",
            "class_codes",
            "disk_codes",
            "shelf_codes",
            "raid_group_codes",
            "system_codes",
            "disk_model_codes",
            "shelf_model_codes",
        ):
            digest.update(
                np.ascontiguousarray(getattr(self, name), np.int64).tobytes()
            )
        for name in ("dual_path", "replaced_disk"):
            digest.update(
                np.ascontiguousarray(getattr(self, name), np.uint8).tobytes()
            )
        for name in (
            "disk_ids",
            "shelf_ids",
            "raid_group_ids",
            "system_ids",
            "system_classes",
            "disk_models",
            "shelf_models",
        ):
            digest.update("\x00".join(getattr(self, name).values).encode("utf-8"))
            digest.update(b"\x01")
        return digest.hexdigest()

    # -- serialization -----------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_view", "_sorted")
        }
        state["_sorted"] = self._sorted
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name in self.__slots__:
            if name == "_view":
                setattr(self, name, None)
            else:
                setattr(self, name, state.get(name))


def first_occurrence_ranks(codes: np.ndarray) -> np.ndarray:
    """Rank each code by its first occurrence position in ``codes``.

    Groups come in order of each group's first event — the order a dict
    keyed by unit id enumerates them.  ``np.lexsort((times,
    ranks[codes]))`` then visits groups, and their members in time
    order, in that fixed order, which pins the order of pooled float
    reductions (tests/goldens/analysis_goldens.json).
    """
    if codes.size == 0:
        return np.zeros(0, dtype=np.int64)
    unique, first = np.unique(codes, return_index=True)
    ranks = np.empty(int(unique.max()) + 1, dtype=np.int64)
    ranks[unique[np.argsort(first, kind="stable")]] = np.arange(unique.size)
    return ranks[codes]


__all__ = [
    "CAUSE_ORDER",
    "EventTable",
    "StringTable",
    "first_occurrence_ranks",
]
