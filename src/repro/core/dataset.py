"""The failure dataset: events plus exposure, the input to every analysis.

A :class:`FailureDataset` pairs the delivered subsystem failure events
with the fleet they happened on, because every AFR in the paper is a
ratio of event counts to in-service disk time, and every grouping
(system class, disk model, shelf model, path configuration) needs the
fleet's configuration metadata — exactly what the weekly AutoSupport
configuration snapshots provide in the real study (§2.5).

A dataset holds one event representation, the structure-of-arrays
:class:`~repro.core.columns.EventTable`, in detection-time order.  The
constructor accepts a table or an iterable of :class:`FailureEvent`
dataclasses; a list is stable-sorted by detection time and interned
once, and ``events`` is the table's view of those same objects.

Analyses pick systems with a boolean mask over the fleet's rows
(:meth:`Fleet.where <repro.fleet.fleet.Fleet.where>`, combined with
``&``, ``|`` and ``~``); :meth:`FailureDataset.event_mask` turns one
into a mask over the event table.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.columns import EventTable
from repro.errors import AnalysisError
from repro.failures.events import FailureEvent
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.fleet.calibration import PROBLEMATIC_DISK_FAMILY
from repro.fleet.fleet import Fleet, sequential_sum
from repro.topology.system import StorageSystem
from repro.units import seconds_to_years

#: Events on the same disk, of the same type, within this window are
#: duplicate reports of one failure (§5.1 "filtered out all duplicate
#: failures").
DEDUP_WINDOW_SECONDS = 3_600.0


class FailureDataset:
    """Failure events plus the fleet that produced them.

    Attributes:
        events: subsystem failure events, sorted by detection time
            (a lazily materialized list view over :attr:`table`).
        table: the columnar event store, in detection-time order.
        fleet: the fleet (with final disk lifetimes) for exposure and
            configuration lookups.
    """

    def __init__(
        self,
        events: Union[Iterable[FailureEvent], EventTable],
        fleet: Fleet,
    ) -> None:
        self.fleet = fleet
        self._dedup_cache: Dict[float, "FailureDataset"] = {}
        self._events: Optional[List[FailureEvent]] = None
        if isinstance(events, EventTable):
            self.table = events.sorted_by_detect()
        else:
            ordered = sorted(events, key=lambda e: e.detect_time)
            with obs.span("dataset.columnarize", events=len(ordered)):
                self.table = EventTable.from_events(ordered)

    @property
    def events(self) -> List[FailureEvent]:
        """The events as dataclasses (materialized on first access)."""
        if self._events is None:
            self._events = list(self.table.events())
        return self._events

    # -- serialization -------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the compact columnar form, never the dataclass list —
        # this is what keeps runtime result-cache entries small.
        return {"table": self.table, "fleet": self.fleet}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.fleet = state["fleet"]
        self.table = state["table"]
        self._dedup_cache = {}
        self._events = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_injection(cls, injection) -> "FailureDataset":
        """Build from a :class:`~repro.failures.injector.InjectionResult`."""
        return cls(events=injection.to_table(), fleet=injection.fleet)

    # -- basic accessors ----------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        """Observation window length."""
        return self.fleet.duration_seconds

    def __len__(self) -> int:
        return len(self.table)

    def events_of_type(self, failure_type: FailureType) -> List[FailureEvent]:
        """All events of one failure type."""
        table = self.table
        return table.rows(np.flatnonzero(table.type_mask(failure_type)))

    def counts_by_type(self) -> Dict[FailureType, int]:
        """Event counts per type."""
        counts = self.table.counts_by_type()
        by_type = {
            failure_type: int(counts[code])
            for code, failure_type in enumerate(FAILURE_TYPE_ORDER)
        }
        # Extended types (operator error) join the dict only when
        # present, keeping default-backend output four-keyed.
        for failure_type in EXTENDED_FAILURE_TYPES:
            count = int(counts[ALL_FAILURE_TYPES.index(failure_type)])
            if count:
                by_type[failure_type] = count
        return by_type

    def system_of(self, event: FailureEvent) -> StorageSystem:
        """The system an event happened on."""
        return self.fleet.system(event.system_id)

    # -- system selection ----------------------------------------------------

    def _checked(self, systems: np.ndarray) -> np.ndarray:
        """``systems`` as a mask over this dataset's fleet rows."""
        systems = np.asarray(systems)
        if systems.dtype != bool or systems.shape != (self.fleet.system_count,):
            raise AnalysisError(
                "a system mask is a bool array over the %d fleet rows, got %s %s"
                % (self.fleet.system_count, systems.dtype, systems.shape)
            )
        return systems

    @functools.cached_property
    def table_system_rows(self) -> np.ndarray:
        """Per system code of the event table, the system's fleet row.

        -1 marks an id the fleet does not hold: the table's vocabulary
        still names the systems a :meth:`filter_systems` dropped.
        """
        return self.fleet.system_rows(self.table.system_ids.values)

    def event_mask(self, systems: np.ndarray) -> np.ndarray:
        """The event-table rows on the systems a fleet-row mask picks."""
        # Row -1 reads the appended False: dropped systems never match.
        picked = np.append(self._checked(systems), False)
        return picked[self.table_system_rows][self.table.system_codes]

    def filter_systems(self, systems: np.ndarray) -> "FailureDataset":
        """Restrict to the systems a fleet-row mask picks (events follow).

        Returns a new dataset over :meth:`Fleet.select` of the kept
        systems, which shares this fleet's exposure column.
        """
        kept = self.table.select(self.event_mask(systems))
        subset = self.fleet.select(np.flatnonzero(systems))
        return FailureDataset(events=kept, fleet=subset)

    def excluding_disk_family(
        self, family: str = PROBLEMATIC_DISK_FAMILY
    ) -> "FailureDataset":
        """Drop systems whose primary disks belong to ``family``.

        This is the paper's Fig. 4(b) treatment: storage subsystems using
        the problematic Disk H family are excluded so one bad product
        does not skew the class-level trends.
        """
        return self.filter_systems(~self.fleet.where(disk_family=family))

    def deduplicated(
        self, window_seconds: float = DEDUP_WINDOW_SECONDS
    ) -> "FailureDataset":
        """Collapse duplicate reports (same disk, same type, close in time).

        The result is cached per window: the dataset is immutable by
        convention and every Fig. 9/10 aggregation starts with this same
        collapse.
        """
        cached = self._dedup_cache.get(window_seconds)
        if cached is None:
            with obs.span("dataset.dedup", events=len(self)):
                table = self.table
                kept = table.select(table.dedup_keep_mask(window_seconds))
                cached = FailureDataset(events=kept, fleet=self.fleet)
            self._dedup_cache[window_seconds] = cached
        return cached

    # -- exposure accounting ---------------------------------------------------

    def exposure_years(self, systems: Optional[np.ndarray] = None) -> float:
        """Summed disk-years of exposure over the fleet, or over the
        systems a fleet-row mask picks.

        Exposure respects per-disk lifetimes: disks removed after a
        failure stop accruing, replacements start accruing at install —
        the paper's "we account for that ... by calculating the life
        time of each individual disk" (Table 1 caption).  Systems are
        summed one by one in fleet order from the fleet's per-system
        exposure column.
        """
        column = self.fleet.exposure_column()
        if systems is not None:
            column = column[self._checked(systems)]
        return seconds_to_years(sequential_sum(column))

    # -- grouping for statistical scopes ------------------------------------

    def events_by_scope(
        self,
        scope: str,
        failure_type: Optional[FailureType] = None,
    ) -> Dict[str, List[FailureEvent]]:
        """Events grouped by shelf or RAID group (Fig. 9/10 scopes).

        Args:
            scope: ``"shelf"`` or ``"raid_group"``.
            failure_type: restrict to one type (None = all types).
        """
        if scope == "shelf":
            key = lambda e: e.shelf_id  # noqa: E731
        elif scope == "raid_group":
            key = lambda e: e.raid_group_id  # noqa: E731
        else:
            raise AnalysisError("scope must be 'shelf' or 'raid_group'")
        grouped: Dict[str, List[FailureEvent]] = {}
        for event in self.events:
            if failure_type is not None and event.failure_type is not failure_type:
                continue
            grouped.setdefault(key(event), []).append(event)
        return grouped

    def scope_population(self, scope: str) -> List[Tuple[str, StorageSystem]]:
        """All (scope id, owning system) pairs in the fleet.

        The correlation analysis needs the full population of shelves /
        RAID groups, including those that never failed.
        """
        fleet = self.fleet
        if scope == "shelf":
            ids, starts = fleet.shelf_ids, fleet.system_shelf_start
        elif scope == "raid_group":
            ids, starts = fleet.group_ids, fleet.system_group_start
        else:
            raise AnalysisError("scope must be 'shelf' or 'raid_group'")
        owners = np.repeat(np.arange(fleet.system_count), np.diff(starts))
        systems = fleet.systems
        return [(unit, systems[owner]) for unit, owner in zip(ids, owners.tolist())]

    # -- summaries ---------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Headline totals (systems, shelves, disks, events, exposure)."""
        return {
            "systems": self.fleet.system_count,
            "shelves": self.fleet.shelf_count,
            "raid_groups": self.fleet.raid_group_count,
            "disks_ever": self.fleet.disk_count_ever,
            "events": len(self),
            "exposure_disk_years": self.exposure_years(),
        }
