"""Labeled samples for failure prediction.

Observation times lie on a regular grid per disk (default every 30
days in service).  A sample is positive when the disk suffers any
storage subsystem failure within the prediction horizon after the
observation.  Negatives vastly outnumber positives (AFRs are a few
percent per year), so they are subsampled at a configurable ratio.

Samples are arrays over the fleet's disk lifetime table: each names
its disk by lifetime-table row.  :class:`Timeline` answers the per-disk
time queries (the next failure, the incidents in a window) for every
sample at once.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.fleet.fleet import Fleet
from repro.units import SECONDS_PER_DAY


class Timeline:
    """Timed marks per unit (a disk row, a shelf), queried in bulk.

    Units and times combine into one sorted integer key per mark.  Each
    time enters the key as its rank among the distinct mark times, so
    every comparison is the exact float comparison; a float key such as
    ``unit * span + time`` would round.
    """

    def __init__(self, units: np.ndarray, times: np.ndarray) -> None:
        times = np.asarray(times, dtype=np.float64)
        self._values = np.unique(times)
        self._span = self._values.size + 1
        keys = self._key(units, times, "left")
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._times = times[order]

    def _key(self, units: np.ndarray, times: np.ndarray, side: str) -> np.ndarray:
        ranks = np.searchsorted(self._values, times, side=side)
        return np.asarray(units, dtype=np.int64) * self._span + ranks

    def count(self, units: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Marks on each unit with ``start <= time <= end``."""
        keys = self._keys
        return keys.searchsorted(self._key(units, end, "right")) - keys.searchsorted(
            self._key(units, start, "left")
        )

    def next_after(self, units: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Each unit's first mark time after ``times`` (inf for none)."""
        keys = self._keys
        if not keys.size:
            return np.full(np.shape(times), np.inf)
        at = keys.searchsorted(self._key(units, times, "right"))
        found = at < keys.size
        at = np.minimum(at, keys.size - 1)
        found &= keys[at] // self._span == np.asarray(units, dtype=np.int64)
        return np.where(found, self._times[at], np.inf)


def observation_grid(
    start: np.ndarray, end: np.ndarray, step: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Every disk's times ``start, start + step, ...`` before ``end``.

    Returns ``(lifetime-table rows, times)``, disk by disk.  Each time
    is the previous one plus ``step``, as a running ``time += step``
    makes it (``start + k * step`` rounds differently), so the loop
    runs over grid steps, every disk at once.
    """
    rows = np.arange(start.size)
    time = np.asarray(start, dtype=np.float64)
    step_rows: List[np.ndarray] = []
    step_times: List[np.ndarray] = []
    while rows.size:
        live = time < end[rows]
        rows, time = rows[live], time[live]
        step_rows.append(rows)
        step_times.append(time)
        time = time + step
    rows = np.concatenate(step_rows) if step_rows else rows
    times = np.concatenate(step_times) if step_times else time
    order = np.argsort(rows, kind="stable")
    return rows[order], times[order]


@dataclasses.dataclass
class SampleSet:
    """Labeled prediction samples, one array entry per sample.

    Attributes:
        fleet: the fleet whose disks the samples observe.
        disks: each sample's disk, as a row of the fleet's lifetime
            table.
        times: observation times.
        labels: 1 = failure within the horizon, 0 = not.
        horizon_days: the prediction horizon used for labeling.
    """

    fleet: Fleet
    disks: np.ndarray
    times: np.ndarray
    labels: np.ndarray
    horizon_days: float

    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self.disks.size)

    @property
    def positives(self) -> int:
        """Number of positive samples."""
        return int(self.labels.sum())

    @property
    def systems(self) -> np.ndarray:
        """Each sample's system, as a fleet row (for leakage-free splits)."""
        return self.fleet.slot_system[self.fleet.disk_slot[self.disks]]

    def split_by_system(
        self, test_fraction: float = 0.3
    ) -> Tuple["SampleSet", "SampleSet"]:
        """Deterministic train/test split with whole systems per side.

        Systems are assigned by a stable hash of their id, so a system's
        samples never straddle the split (which would leak shelf-level
        shock context from train into test).
        """
        if not 0.0 < test_fraction < 1.0:
            raise AnalysisError("test_fraction must be in (0, 1)")
        fractions = np.array([_stable_fraction(key) for key in self.fleet.system_ids])
        test = fractions[self.systems] < test_fraction
        if test.all() or not test.any():
            raise AnalysisError("split produced an empty side")
        return self._subset(~test), self._subset(test)

    def _subset(self, picked: np.ndarray) -> "SampleSet":
        return SampleSet(
            fleet=self.fleet,
            disks=self.disks[picked],
            times=self.times[picked],
            labels=self.labels[picked],
            horizon_days=self.horizon_days,
        )


def _stable_fraction(key: str) -> float:
    """Map a string to a stable fraction in [0, 1) (FNV-1a based)."""
    acc = 0xCBF29CE484222325
    for byte in key.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return (acc % 10_000) / 10_000.0


def build_samples(
    dataset: FailureDataset,
    horizon_days: float = 14.0,
    grid_days: float = 30.0,
    negative_ratio: float = 5.0,
    seed: int = 0,
) -> SampleSet:
    """Build the labeled sample set from a simulated dataset.

    Args:
        dataset: events + fleet (the failure ground truth).
        horizon_days: look-ahead window for the positive label.
        grid_days: spacing of observation times per disk.
        negative_ratio: kept negatives per positive (subsampling).
        seed: determinism for the negative subsample.

    Returns:
        A shuffled :class:`SampleSet`.

    Raises:
        AnalysisError: when no positive samples exist (fleet too small).
    """
    if horizon_days <= 0.0 or grid_days <= 0.0:
        raise AnalysisError("horizon and grid must be positive")
    horizon = horizon_days * SECONDS_PER_DAY
    grid = grid_days * SECONDS_PER_DAY
    fleet = dataset.fleet
    table = dataset.table
    rows = fleet.disk_rows(table.disk_ids.values)[table.disk_codes]
    known = rows >= 0
    failures = Timeline(rows[known], table.detect_time[known])

    disks, times = observation_grid(
        fleet.disk_install + grid, fleet.service_end(dataset.duration_seconds), grid
    )
    hit = failures.next_after(disks, times) <= times + horizon
    positives = np.flatnonzero(hit)
    negatives = np.flatnonzero(~hit)
    if not positives.size:
        raise AnalysisError(
            "no positive samples: enlarge the fleet or the horizon"
        )
    rng = np.random.default_rng(seed)
    keep = min(negatives.size, int(round(negative_ratio * positives.size)))
    chosen = rng.choice(negatives.size, size=keep, replace=False)
    picked = np.concatenate((positives, negatives[chosen]))
    order = rng.permutation(picked.size)
    picked = picked[order]
    return SampleSet(
        fleet=fleet,
        disks=disks[picked],
        times=times[picked],
        labels=(order < positives.size).astype(float),
        horizon_days=horizon_days,
    )
