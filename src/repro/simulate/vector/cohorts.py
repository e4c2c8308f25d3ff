"""Cohort grouping: the unit of batched hazard sampling.

All systems sharing (system class, shelf model, primary disk model,
dual-path flag) see *identical* delivered failure rates — the rate
formula in :func:`repro.fleet.calibration.delivered_afr_percent` has no
other inputs — so their shelves can be simulated as one batch: every
hazard draw that the legacy injector makes per shelf or per slot
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
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.failures.backends import HazardBackend, resolve as resolve_backend
from repro.failures.injector import InjectorConfig
from repro.failures.types import FailureType
from repro.fleet.fleet import Fleet
from repro.fleet.partition import cell_of
from repro.rng import RandomSource
from repro.topology.classes import SystemClass



@dataclasses.dataclass
class Cohort:
    """One batch of same-configuration systems.

    Attributes:
        system_class / shelf_model / disk_model / dual_path: the grouping
            key — everything the delivered rates depend on.
        systems: global system indices (fleet order).
        shelves: global shelf indices, ascending.
        shelf_deploy: per-cohort-shelf deployment time.
        shelf_n_slots: per-cohort-shelf bay count.
        shelf_offset: per-cohort-shelf global index of its first slot.
        slots: global slot indices of every cohort bay, ascending.
        slot_deploy: per-cohort-slot deployment time.
        rates: per-type delivered failure rate (events per second per
            disk), multipliers applied.
        cell: partition cell of every member system (part of the
            grouping key; whole cells map to shards).
    """

    system_class: SystemClass
    shelf_model: str
    disk_model: str
    dual_path: bool
    systems: np.ndarray
    shelves: np.ndarray
    shelf_deploy: np.ndarray
    shelf_n_slots: np.ndarray
    shelf_offset: np.ndarray
    slots: np.ndarray
    slot_deploy: np.ndarray
    rates: Dict[FailureType, float]
    cell: int = 0
    _rng: object = None  # cached (source, generator) pair

    @property
    def n_shelves(self) -> int:
        return int(self.shelves.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.slots.shape[0])

    def stream(self, source: RandomSource) -> np.random.Generator:
        """The cohort's deterministic random stream.

        Content-addressed: keyed by the grouping tuple (class value,
        model names, path flag, partition cell), never by cohort
        enumeration order — so adding a system class or reordering the
        builder cannot silently shift another cohort's randomness, and
        a shard replays exactly the streams its cells own.  One
        generator serves the whole cohort, consumed in the engine's
        fixed stage order, just as the legacy injector consumes one
        stream per system.
        """
        cached = self._rng
        if cached is None or cached[0] is not source:
            cached = (
                source,
                source.stream(
                    "vector",
                    self.system_class.value,
                    self.shelf_model,
                    self.disk_model,
                    int(self.dual_path),
                    self.cell,
                ),
            )
            self._rng = cached
        return cached[1]


def group_cohorts(
    fleet: Fleet,
    config: InjectorConfig,
    backend: HazardBackend = None,
) -> List[Cohort]:
    """Partition a fleet into cohorts, in first-seen system order.

    Per-type rates come from the hazard backend (resolved from the
    config when not passed), over its active types — the paper's four
    plus any configured extended types.
    """
    if backend is None:
        backend = resolve_backend(config.hazard_backend)
    keys = list(
        zip(
            fleet.system_classes,
            fleet.shelf_models,
            fleet.disk_models,
            fleet.dual_path.tolist(),
            [cell_of(system_id) for system_id in fleet.system_ids],
        )
    )
    order: Dict[tuple, int] = {}
    for key in keys:
        if key not in order:
            order[key] = len(order)
    cohort_of_sys = np.asarray([order[key] for key in keys], dtype=np.int64)

    cohorts: List[Cohort] = []
    shelf_cohort = (
        cohort_of_sys[fleet.shelf_system]
        if fleet.shelf_count
        else np.zeros(0, dtype=np.int64)
    )
    rates_of: Dict[tuple, Dict[FailureType, float]] = {}
    for key, index in order.items():
        system_class, shelf_model, disk_model, dual_path, cell = key
        systems = np.flatnonzero(cohort_of_sys == index)
        shelves = np.flatnonzero(shelf_cohort == index)
        n_slots = fleet.shelf_n_slots[shelves]
        starts = fleet.shelf_slot_start[shelves]
        total = int(n_slots.sum())
        # Global slot index of every cohort bay: per-shelf ranges,
        # flattened without a Python loop.
        local = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(n_slots) - n_slots, n_slots
        )
        slots = np.repeat(starts, n_slots) + local
        shelf_deploy = fleet.deploy_time[fleet.shelf_system[shelves]]
        # Rates depend on the configuration only, not the cell; compute
        # once per configuration, shared across its cell cohorts.
        rates = rates_of.get(key[:4])
        if rates is None:
            rates = {
                failure_type: backend.delivered_rate(
                    config, system_class, failure_type, disk_model, shelf_model
                )
                for failure_type in backend.active_types(config)
            }
            rates_of[key[:4]] = rates
        cohorts.append(
            Cohort(
                system_class=system_class,
                shelf_model=shelf_model,
                disk_model=disk_model,
                dual_path=dual_path,
                systems=systems,
                shelves=shelves,
                shelf_deploy=shelf_deploy,
                shelf_n_slots=n_slots,
                shelf_offset=starts,
                slots=slots,
                slot_deploy=np.repeat(shelf_deploy, n_slots),
                rates=rates,
                cell=cell,
            )
        )
    return cohorts
