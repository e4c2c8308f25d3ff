"""Cohort grouping: the unit of batched hazard sampling.

All systems sharing (system class, shelf model, primary disk model,
dual-path flag) see *identical* delivered failure rates — the rate
formula in :func:`repro.fleet.calibration.delivered_afr_percent` has no
other inputs — so their shelves can be simulated as one batch: every
hazard draw a per-unit simulation would make per shelf or per slot
becomes one NumPy vector over the cohort.

Each cohort owns one deterministic random stream keyed by its *content*
(class value, model names, path flag, hash cell), not by enumeration
order — so adding a system class or reordering the builder cannot
silently shift another cohort's randomness.

Cohorts are additionally split by the system's partition **cell**
(:func:`repro.fleet.partition.cell_of` — a stable hash of the system
id).  Shards are unions of whole cells, so every (configuration, cell)
cohort lives entirely inside one shard and draws exactly the arrays the
unsharded run draws: the union of an N-shard run's event tables is
byte-identical to the 1-shard table, for any N.

A :class:`CohortSet` holds every cohort as a *segment* of fleet-wide
arrays (systems, shelves and bays, cohort-major), so the engine runs
each stage once over all cohorts (stage-major).  Only the draws loop
over cohorts: each cohort draws from its own stream, and a stage-major
run consumes every stream in the same order, with the same sizes, as
simulating the cohorts one at a time would.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.failures.backends import HazardBackend, resolve as resolve_backend
from repro.failures.injector import InjectorConfig
from repro.failures.types import FailureType
from repro.fleet.fleet import Fleet, offsets
from repro.fleet.partition import NUM_CELLS
from repro.rng import Key, RandomSource
from repro.topology.classes import SystemClass

#: A cohort's grouping key: class, shelf model, disk model, path flag, cell.
CohortKey = Tuple[SystemClass, str, str, bool, int]
#: One random stream per cohort, indexed by cohort.
Streams = Sequence[np.random.Generator]

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` per pair."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(
        np.asarray(starts, dtype=np.int64) - (np.cumsum(lengths) - lengths), lengths
    ) + np.arange(int(lengths.sum()), dtype=np.int64)


def segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-segment integer sums of ``values`` over ``[bounds[i], bounds[i+1])``."""
    running = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=running[1:])
    return running[bounds[1:]] - running[bounds[:-1]]


def nonempty(sizes: np.ndarray) -> List[Tuple[int, int]]:
    """``(cohort, size)`` for every cohort with a non-empty draw."""
    index = np.flatnonzero(sizes)
    return list(zip(index.tolist(), sizes[index].tolist()))


def segment_poisson(
    streams: Streams, lam: np.ndarray, bounds: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """Poisson counts for ``lam[bounds[c]:bounds[c + 1]]`` from stream
    ``c``, one draw per live cohort; 0 elsewhere."""
    counts = np.zeros(lam.size, dtype=np.int64)
    limits = bounds.tolist()
    for c in np.flatnonzero(live).tolist():
        lo, hi = limits[c], limits[c + 1]
        counts[lo:hi] = streams[c].poisson(lam[lo:hi])
    return counts


def joined(parts: Sequence[np.ndarray], dtype) -> np.ndarray:
    """Per-cohort draws, concatenated in cohort order."""
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def first_appearance(row_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
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
    return uniq[rank], code_of_key[inverse.reshape(-1)]


def system_cells(system_ids: Sequence[str]) -> np.ndarray:
    """:func:`repro.fleet.partition.cell_of` of every id, vectorized.

    The same 64-bit FNV-1a recurrence, run once per byte column over
    every id at once (uint64 arithmetic wraps like the scalar mask).
    """
    encoded = [system_id.encode("utf-8") for system_id in system_ids]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = int(lengths.max(initial=0))
    acc = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    if width:
        padded = np.frombuffer(
            b"".join(text.ljust(width, b"\0") for text in encoded), dtype=np.uint8
        ).reshape(len(encoded), width)
        for column in range(width):
            live = lengths > column
            acc[live] = (acc[live] ^ padded[live, column]) * _FNV_PRIME
    return (acc % np.uint64(NUM_CELLS)).astype(np.int64)


class Cohort:
    """One cohort of a :class:`CohortSet`: its key, rates and rows.

    Attributes:
        system_class / shelf_model / disk_model / dual_path: the grouping
            key — everything the delivered rates depend on.
        cell: partition cell of every member system (part of the
            grouping key; whole cells map to shards).
        rates: per-type delivered failure rate (events per second per
            disk), multipliers applied.
        systems: global system indices (fleet order).
        shelves: global shelf indices, ascending.
        shelf_deploy / shelf_n_slots / shelf_offset: per cohort shelf,
            its deployment time, bay count and first global slot.
        slots: global slot indices of every cohort bay, ascending.
        slot_deploy: per cohort bay, its deployment time.
    """

    def __init__(self, owner: "CohortSet", index: int) -> None:
        self.owner = owner
        self.index = index
        (
            self.system_class,
            self.shelf_model,
            self.disk_model,
            self.dual_path,
            self.cell,
        ) = owner.keys[index]
        self.rates = owner.rates[index]
        shelf = slice(*owner.shelf_start[index : index + 2].tolist())
        slot = slice(*owner.slot_start[index : index + 2].tolist())
        systems = slice(*owner.system_start[index : index + 2].tolist())
        self.systems = owner.systems[systems]
        self.shelves = owner.shelves[shelf]
        self.shelf_deploy = owner.shelf_deploy[shelf]
        self.shelf_n_slots = owner.shelf_n_slots[shelf]
        self.shelf_offset = owner.shelf_offset[shelf]
        self.slots = owner.slots[slot]
        self.slot_deploy = owner.slot_deploy[slot]

    @property
    def n_shelves(self) -> int:
        return int(self.shelves.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.slots.shape[0])

    def stream(self, source: RandomSource) -> np.random.Generator:
        """The cohort's deterministic random stream (see
        :meth:`CohortSet.stream`)."""
        return self.owner.stream(self.index, source)


class CohortSet:
    """Every cohort of a fleet as segments of cohort-major arrays.

    Cohort ``c`` owns systems ``systems[system_start[c]:system_start[c+1]]``
    and likewise shelf rows (``shelf_start``) and bay rows
    (``slot_start``); within a cohort, shelves and bays ascend in fleet
    order.

    Args:
        keys: per cohort, its grouping key.
        rates: per cohort, per-type delivered rate (shared by the cells
            of one configuration).
        active: the failure types this run injects, in stacking order.
        systems / system_start: member systems and their segment bounds.
        shelves / shelf_start: member shelves and their segment bounds.
        shelf_deploy / shelf_n_slots / shelf_offset: per shelf row.
    """

    def __init__(
        self,
        keys: Sequence[CohortKey],
        rates: Sequence[Dict[FailureType, float]],
        active: Tuple[FailureType, ...],
        systems: np.ndarray,
        system_start: np.ndarray,
        shelves: np.ndarray,
        shelf_start: np.ndarray,
        shelf_deploy: np.ndarray,
        shelf_n_slots: np.ndarray,
        shelf_offset: np.ndarray,
    ) -> None:
        self.keys = list(keys)
        self.rates = list(rates)
        self.active = tuple(active)
        self.systems = np.asarray(systems, dtype=np.int64)
        self.system_start = np.asarray(system_start, dtype=np.int64)
        self.shelves = np.asarray(shelves, dtype=np.int64)
        self.shelf_start = np.asarray(shelf_start, dtype=np.int64)
        self.shelf_deploy = np.asarray(shelf_deploy, dtype=np.float64)
        self.shelf_n_slots = np.asarray(shelf_n_slots, dtype=np.int64)
        self.shelf_offset = np.asarray(shelf_offset, dtype=np.int64)
        self.shelf_counts = np.diff(self.shelf_start)
        self.shelf_cohort = np.repeat(
            np.arange(len(self.keys), dtype=np.int64), self.shelf_counts
        )
        self.slot_start = offsets(self.shelf_n_slots)[self.shelf_start]
        self.slot_counts = np.diff(self.slot_start)
        self.slots = ranges(self.shelf_offset, self.shelf_n_slots)
        self.slot_deploy = np.repeat(self.shelf_deploy, self.shelf_n_slots)
        #: Bound on slot indices: ``cohort * slot_span + slot`` is a
        #: sortable key unique across cohorts.
        self.slot_span = int(self.slots.max(initial=0)) + 1
        self.dual_path = np.asarray([key[3] for key in self.keys], dtype=bool)
        self._views: Dict[int, Cohort] = {}
        self._streams: Dict[int, Tuple[RandomSource, np.random.Generator]] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int) -> Cohort:
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = Cohort(self, range(len(self))[index])
        return view

    def __iter__(self) -> Iterator[Cohort]:
        return (self[index] for index in range(len(self)))

    @property
    def slot_cohort(self) -> np.ndarray:
        """Per bay row, its cohort."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.slot_counts)

    @functools.cached_property
    def slot_key(self) -> np.ndarray:
        """Per bay row, ``cohort * slot_span + slot``: ascending."""
        return self.slot_cohort * self.slot_span + self.slots

    def slot_rows(self, cohort: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Bay row of each (cohort, global slot) pair."""
        return np.searchsorted(self.slot_key, cohort * self.slot_span + slot)

    def rate(self, failure_type: FailureType) -> np.ndarray:
        """Per cohort, the delivered rate of one type (0 when inactive)."""
        return np.asarray(
            [rates.get(failure_type, 0.0) for rates in self.rates], dtype=np.float64
        )

    def stream(self, index: int, source: RandomSource) -> np.random.Generator:
        """One cohort's deterministic random stream.

        Content-addressed: keyed by the grouping tuple (class value,
        model names, path flag, partition cell), never by cohort
        enumeration order — so adding a system class or reordering the
        builder cannot silently shift another cohort's randomness, and
        a shard replays exactly the streams its cells own.  One
        generator serves the whole cohort, consumed in the engine's
        fixed stage order.  Cached per source.
        """
        cached = self._streams.get(index)
        if cached is None or cached[0] is not source:
            cached = (source, source.stream(*self._stream_path(index)))
            self._streams[index] = cached
        return cached[1]

    def _stream_path(self, index: int) -> Tuple[Key, ...]:
        system_class, shelf_model, disk_model, dual_path, cell = self.keys[index]
        return (
            "vector", system_class.value, shelf_model, disk_model, int(dual_path), cell
        )

    def streams(self, source: RandomSource) -> List[np.random.Generator]:
        """Every cohort's stream, in cohort order; the ones not cached
        for ``source`` are seeded in one batch
        (:meth:`~repro.rng.RandomSource.streams_of`)."""
        missing = [
            index
            for index in range(len(self))
            if index not in self._streams or self._streams[index][0] is not source
        ]
        fresh = source.streams_of(self._stream_path(index) for index in missing)
        for index, rng in zip(missing, fresh):
            self._streams[index] = (source, rng)
        return [self._streams[index][1] for index in range(len(self))]

    def select(self, indices: Iterable[int]) -> "CohortSet":
        """The set of the given cohorts, in the given order."""
        index = np.asarray(list(indices), dtype=np.int64)
        shelf_rows = ranges(self.shelf_start[index], self.shelf_counts[index])
        system_counts = np.diff(self.system_start)[index]
        return CohortSet(
            keys=[self.keys[i] for i in index.tolist()],
            rates=[self.rates[i] for i in index.tolist()],
            active=self.active,
            systems=self.systems[ranges(self.system_start[index], system_counts)],
            system_start=offsets(system_counts),
            shelves=self.shelves[shelf_rows],
            shelf_start=offsets(self.shelf_counts[index]),
            shelf_deploy=self.shelf_deploy[shelf_rows],
            shelf_n_slots=self.shelf_n_slots[shelf_rows],
            shelf_offset=self.shelf_offset[shelf_rows],
        )


def group_cohorts(
    fleet: Fleet,
    config: InjectorConfig,
    backend: Optional[HazardBackend] = None,
) -> CohortSet:
    """Partition a fleet into cohorts, in first-seen system order.

    Per-type rates come from the hazard backend (resolved from the
    config when not passed), over its active types — the paper's four
    plus any configured extended types — once per configuration.
    """
    if backend is None:
        backend = resolve_backend(config.hazard_backend)
    active = backend.active_types(config)
    configurations: Dict[tuple, int] = {}
    config_of_system = np.fromiter(
        (
            configurations.setdefault(key, len(configurations))
            for key in zip(
                fleet.system_classes,
                fleet.shelf_models,
                fleet.disk_models,
                fleet.dual_path.tolist(),
            )
        ),
        dtype=np.int64,
        count=fleet.system_count,
    )
    cells = system_cells(fleet.system_ids)
    cohort_keys, cohort_of_system = first_appearance(
        config_of_system * NUM_CELLS + cells
    )
    # Rates depend on the configuration only, not the cell.
    config_rates = [
        {
            failure_type: backend.delivered_rate(
                config, system_class, failure_type, disk_model, shelf_model
            )
            for failure_type in active
        }
        for system_class, shelf_model, disk_model, _ in configurations
    ]
    config_keys = list(configurations)
    keys: List[CohortKey] = []
    rates: List[Dict[FailureType, float]] = []
    for key in cohort_keys.tolist():
        configuration, cell = divmod(key, NUM_CELLS)
        keys.append(config_keys[configuration] + (cell,))
        rates.append(config_rates[configuration])

    systems = np.argsort(cohort_of_system, kind="stable")
    system_counts = np.bincount(cohort_of_system, minlength=len(keys))
    shelf_counts = np.diff(fleet.system_shelf_start)
    # Each system's shelves are one ascending range, so shelves stay
    # ascending within a cohort.
    shelves = ranges(fleet.system_shelf_start[systems], shelf_counts[systems])
    return CohortSet(
        keys=keys,
        rates=rates,
        active=active,
        systems=systems,
        system_start=offsets(system_counts),
        shelves=shelves,
        shelf_start=offsets(
            segment_sums(shelf_counts[systems], offsets(system_counts))
        ),
        shelf_deploy=fleet.deploy_time[fleet.shelf_system[shelves]],
        shelf_n_slots=fleet.shelf_n_slots[shelves],
        shelf_offset=fleet.shelf_slot_start[shelves],
    )
