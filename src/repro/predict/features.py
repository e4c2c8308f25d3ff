"""Per-disk trailing-window features over the recovered incidents.

A prediction sample is a (disk, observation time) pair; its features
summarize what the support log showed about that disk — and its shelf
neighbours, since §5.2.3's shared components make neighbour trouble
informative — in trailing windows before the observation time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.failures.types import ALL_FAILURE_TYPES, FAILURE_TYPE_ORDER
from repro.fleet.fleet import Fleet
from repro.predict.samples import Timeline
from repro.units import SECONDS_PER_DAY, seconds_to_years

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulate.vector.emit import RecoveredBatch

#: Feature vector layout (order matters; the model reports per-feature
#: weights under these names).
FEATURE_NAMES = (
    "own_incidents_7d",
    "own_incidents_30d",
    "own_incidents_90d",
    "shelf_incidents_30d",
    "disk_incidents_30d",
    "interconnect_incidents_30d",
    "protocol_incidents_30d",
    "performance_incidents_30d",
    "disk_age_years",
)

_TYPES = len(ALL_FAILURE_TYPES)


class FeatureExtractor:
    """Indexes recovered incidents for trailing-window counting.

    Each incident counts once, at the time of its recovery event (the
    last line of its cascade), however many log lines the cascade
    produced.  An incident on a (bay, generation) the lifetime table
    does not hold counts toward no disk and no shelf.
    """

    def __init__(self, fleet: Fleet, recovered: RecoveredBatch) -> None:
        type_codes, times, slots, gens = recovered.incidents()
        disks = fleet.bay_rows(slots, gens)
        known = disks >= 0
        type_codes, times, disks = type_codes[known], times[known], disks[known]
        self._fleet = fleet
        self._own = Timeline(disks, times)
        self._shelf = Timeline(fleet.slot_shelf[fleet.disk_slot[disks]], times)
        self._typed = Timeline(disks * _TYPES + type_codes, times)

    def matrix(self, disks: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Feature matrix, one row per (lifetime-table row, observation
        time) pair; windows include both ends."""
        fleet = self._fleet
        disks = np.asarray(disks, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        month = times - 30.0 * SECONDS_PER_DAY
        shelves = fleet.slot_shelf[fleet.disk_slot[disks]]
        return np.column_stack(
            [
                self._own.count(disks, times - 7.0 * SECONDS_PER_DAY, times),
                self._own.count(disks, month, times),
                self._own.count(disks, times - 90.0 * SECONDS_PER_DAY, times),
                self._shelf.count(shelves, month, times),
            ]
            + [
                # Extended types (operator error) have no column.
                self._typed.count(disks * _TYPES + ALL_FAILURE_TYPES.index(kind), month, times)
                for kind in FAILURE_TYPE_ORDER
            ]
            + [seconds_to_years(np.maximum(0.0, times - fleet.disk_install[disks]))]
        )
