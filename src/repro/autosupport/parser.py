"""Parse AutoSupport-style logs back into failure datasets.

The parser follows the paper's methodology (§2.5): only RAID-layer
events count as storage subsystem failures; the lower-layer cascade
preceding a RAID event supplies the incident's onset time; cascades
with no RAID-layer event (retries, failovers) are ignored; duplicate
RAID events for the same disk and type within an hour are collapsed.
Topology attributes (models, class, RAID group, path configuration)
come from the configuration snapshot, as in the real study.

A system's log is read in one scan of the writer's line layout
(timestamp, event, first disk id), each calendar day decoded once.  A
log the scan does not account for line by line (noise, timestamps only
``strptime`` reads, other line boundaries) is read line by line through
:func:`~repro.autosupport.messages.parse_line` instead; both readings
mine the same events and raise the same errors.  The failures' disks
resolve in one lookup per system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.autosupport.messages import WRITTEN_LINE, LogLine, parse_line
from repro.autosupport.writer import LogArchive
from repro.autosupport.snapshot import parse_snapshot
from repro.core.columns import EventTable
from repro.core.dataset import DEDUP_WINDOW_SECONDS, FailureDataset
from repro.errors import LogFormatError
from repro.failures.events import FailureEvent
from repro.failures.types import ALL_FAILURE_TYPES, FailureType
from repro.fleet.fleet import Fleet
from repro.simulate.clock import SimulationClock
from repro.topology.system import StorageSystem

#: How far back before a RAID event the cascade's first line may lie.
CASCADE_WINDOW_SECONDS = 600.0

_TYPE_CODE = {failure_type: code for code, failure_type in enumerate(ALL_FAILURE_TYPES)}


class CascadeState:
    """Cascade onsets and duplicate suppression over one system's log.

    A lower-layer line dates its disk's cascade unless a line within
    :data:`CASCADE_WINDOW_SECONDS` before it already did.  A RAID-layer
    line is a failure unless its disk logged the same type within
    :data:`~repro.core.dataset.DEDUP_WINDOW_SECONDS` before it.  The
    batch parser feeds lines in time order, the streaming parser
    (:mod:`repro.autosupport.stream`) as they arrive.
    """

    def __init__(self) -> None:
        self._onset: Dict[str, float] = {}
        self._last_raid: Dict[Tuple[str, FailureType], float] = {}

    def observe(
        self, time: float, disk_id: str, failure_type: Optional[FailureType] = None
    ) -> Optional[float]:
        """Feed one line; ``failure_type`` is None for a lower-layer line.

        Returns, for a RAID-layer line that is not a duplicate, the
        failure's occurrence time: its cascade's onset, or the line's
        own time.  None otherwise.
        """
        if failure_type is None:
            onset = self._onset.get(disk_id)
            if onset is None or time - onset > CASCADE_WINDOW_SECONDS:
                self._onset[disk_id] = time
            return None
        key = (disk_id, failure_type)
        previous = self._last_raid.get(key)
        if previous is not None and time - previous < DEDUP_WINDOW_SECONDS:
            return None
        self._last_raid[key] = time
        onset = self._onset.get(disk_id)
        if onset is not None and time - onset <= CASCADE_WINDOW_SECONDS:
            return onset
        return time


class _Lines:
    """The lines that name a disk, of logs read in order: per line its
    log's position, time, event name and disk id, log by log, each in
    log order; and per log its system's fleet row."""

    def __init__(self) -> None:
        self.systems: List[int] = []
        self.logs: List[np.ndarray] = []
        self.times: List[np.ndarray] = []
        self.events: List[str] = []
        self.disks: List[str] = []

    def add(self, system: int, times: np.ndarray, events, disks) -> None:
        self.logs.append(np.full(times.size, len(self.systems)))
        self.systems.append(system)
        self.times.append(times)
        self.events.extend(events)
        self.disks.extend(disks)


def _scan(
    logs: Sequence[Tuple[int, str]], clock: SimulationClock, strict: bool
) -> Tuple[_Lines, Optional[LogFormatError]]:
    """The lines of each ``(system row, text)`` log and, in strict mode,
    the first fault; the lines stop before the faulty log.

    A log is taken from the scan when the scan reads each of its
    ``splitlines`` lines and each timestamp names a valid instant;
    every scanned timestamp is decoded in one pass.  Any other log is
    read line by line (lenient mode skips malformed lines).
    """
    scans = [WRITTEN_LINE.findall(text) for _, text in logs]
    whole = [len(found) == len(text.splitlines()) for found, (_, text) in zip(scans, logs)]
    times = clock.parse_written(
        [stamp for found, ok in zip(scans, whole) if ok for stamp, _, _ in found]
    )
    lines = _Lines()
    start = 0
    for (system, text), found, ok in zip(logs, scans, whole):
        if ok:
            stamped, start = times[start : start + len(found)], start + len(found)
            if not np.isnan(stamped).any():
                _, events, disks = zip(*found) if found else ((), (), ())
                lines.add(system, stamped, events, disks)
                continue
        try:
            parsed = _parse_lines(text, clock, strict)
        except LogFormatError as exc:
            return lines, exc
        lines.add(
            system,
            np.array([line.time for line in parsed], dtype=np.float64),
            [line.event for line in parsed],
            [line.disk_id for line in parsed],
        )
    return lines, None


def _parse_lines(text: str, clock: SimulationClock, strict: bool) -> List[LogLine]:
    """A log's lines that name a disk, read one by one."""
    lines: List[LogLine] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        try:
            line = parse_line(clock, raw)
        except LogFormatError:
            if strict:
                raise
            continue
        if line.disk_id is not None:
            lines.append(line)
    return lines


def _raid_type(event: str) -> Optional[FailureType]:
    try:
        return FailureType.from_raid_event(event)
    except ValueError:
        return None


def _mine(fleet: Fleet, lines: _Lines, strict: bool) -> EventTable:
    """The failures of the scanned logs, log by log, each in time order.

    Each log's lines feed a :class:`CascadeState` in time order; then
    every failure's disk resolves among its system's in one lookup.
    Strict mode raises the first fault, in log order, then time order:
    an unknown RAID event, or a failure on a disk its system does not
    hold.
    """
    logs = np.concatenate(lines.logs or [np.zeros(0, dtype=np.int64)])
    times = np.concatenate(lines.times or [np.zeros(0)])
    # Each log's lines are contiguous: a stable sort by time per log.
    order = np.lexsort((times, logs))
    times = times[order].tolist()
    events = np.asarray(lines.events, dtype=object)[order].tolist()
    disks = np.asarray(lines.disks, dtype=object)[order].tolist()
    bounds = np.searchsorted(logs[order], np.arange(len(lines.systems) + 1)).tolist()
    raid_types = {
        event: _raid_type(event)
        for event in set(events)
        if event.split(".", 1)[0] == "raid"
    }
    systems: List[int] = []
    detect: List[float] = []
    occur: List[float] = []
    type_codes: List[int] = []
    disk_ids: List[str] = []
    unknown: Optional[str] = None
    for system, first, last in zip(lines.systems, bounds, bounds[1:]):
        observe = CascadeState().observe
        for time, event, disk in zip(times[first:last], events[first:last], disks[first:last]):
            if event not in raid_types:
                observe(time, disk)
                continue
            failure_type = raid_types[event]
            if failure_type is None:
                if strict:
                    unknown = event
                    break
                continue
            onset = observe(time, disk, failure_type)
            if onset is not None:
                systems.append(system)
                detect.append(time)
                occur.append(min(onset, time))
                type_codes.append(_TYPE_CODE[failure_type])
                disk_ids.append(disk)
        if unknown is not None:
            break
    rows = fleet.disk_rows(disk_ids)
    owners = np.asarray(systems, dtype=np.int64)
    owned = rows >= 0
    owned[owned] = fleet.slot_system[fleet.disk_slot[rows[owned]]] == owners[owned]
    if strict and not owned.all():
        raise LogFormatError(
            "disk %r not found in snapshot topology" % disk_ids[int(np.argmin(owned))]
        )
    if unknown is not None:
        raise LogFormatError("unknown RAID event %r" % unknown)
    keep = np.flatnonzero(owned)
    owners, rows = owners[keep], rows[keep]
    slots = fleet.disk_slot[rows]
    codes = np.asarray(type_codes, dtype=np.int8)[keep]
    system_list = owners.tolist()
    return EventTable.from_columns(
        occur_time=np.asarray(occur, dtype=np.float64)[keep],
        detect_time=np.asarray(detect, dtype=np.float64)[keep],
        type_codes=codes,
        cause_codes=np.full(keep.size, -1, dtype=np.int8),
        dual_path=fleet.dual_path[owners],
        replaced_disk=codes == _TYPE_CODE[FailureType.DISK],
        disk_id=[disk_ids[index] for index in keep.tolist()],
        shelf_id=fleet.shelf_ids_of(fleet.slot_shelf[slots]),
        raid_group_id=fleet.group_ids_of(fleet.slot_group[slots]),
        system_id=[fleet.system_ids[system] for system in system_list],
        system_class=[fleet.system_classes[system].value for system in system_list],
        disk_model=[fleet.disk_models[system] for system in system_list],
        shelf_model=[fleet.shelf_models[system] for system in system_list],
    )


def _mine_logs(
    fleet: Fleet,
    logs: Sequence[Tuple[int, str]],
    clock: SimulationClock,
    strict: bool,
) -> EventTable:
    """The failures in ``(system row, text)`` logs, log by log; strict
    mode raises the first fault in log order."""
    with obs.span("autosupport.parse.scan", logs=len(logs)):
        lines, fault = _scan(logs, clock, strict)
    with obs.span("autosupport.parse.events"):
        table = _mine(fleet, lines, strict)
    if fault is not None:
        raise fault
    return table


def as_fleet_row(system: StorageSystem) -> StorageSystem:
    """``system`` as a row of a fleet: itself, or, for a system built by
    hand, the one row of a fleet packed from its objects.

    Both parsers resolve disks through a fleet's arrays.  Packing raises
    :class:`~repro.errors.TopologyError` for objects the arrays cannot
    hold (see :class:`~repro.fleet.fleet.Fleet`).
    """
    if system.fleet is not None:
        return system
    return Fleet([system], 0.0).systems[0]


def parse_system_log(
    text: str,
    system: StorageSystem,
    clock: SimulationClock = SimulationClock(),
    strict: bool = False,
) -> List[FailureEvent]:
    """Extract the subsystem failures recorded in one system's log.

    Args:
        text: full log text.
        system: the owning system (from the parsed snapshot); a system
            built by hand is packed first (:func:`as_fleet_row`).
        clock: timestamp mapping.
        strict: raise on unparseable lines instead of skipping them
            (real log mining tolerates noise; tests use strict mode).

    Returns:
        Events in detection-time order, duplicates collapsed.
    """
    system = as_fleet_row(system)
    table = _mine_logs(system.fleet, [(system.fleet_index, text)], clock, strict)
    return list(table.events())


def build_event(
    system: StorageSystem,
    line: LogLine,
    failure_type: FailureType,
    occur_time: float,
) -> Optional[FailureEvent]:
    """Materialize a RAID-layer log line into a :class:`FailureEvent`.

    Resolves the line's disk id against the system's snapshot topology
    (its fleet's :meth:`~repro.fleet.fleet.Fleet.find_disk`) and
    attaches every topology attribute the analyses group by.  Returns
    ``None`` when the id names no disk of the system — callers decide
    whether that is noise to skip or (in strict mode) an error.  A
    system built by hand is packed first (:func:`as_fleet_row`).  The
    streaming parser builds its events one line at a time with this.
    """
    system = as_fleet_row(system)
    fleet = system.fleet
    row = fleet.find_disk(line.disk_id)
    if row < 0:
        return None
    slot = fleet.disk_slot[row]
    if fleet.slot_system[slot] != system.fleet_index:
        return None
    group = fleet.slot_group[slot]
    return FailureEvent(
        occur_time=min(occur_time, line.time),
        detect_time=line.time,
        failure_type=failure_type,
        disk_id=line.disk_id,
        shelf_id=fleet.shelf_ids[fleet.slot_shelf[slot]],
        raid_group_id=fleet.group_ids[group] if group >= 0 else "",
        system_id=system.system_id,
        system_class=system.system_class.value,
        disk_model=system.primary_disk_model,
        shelf_model=system.shelf_model,
        dual_path=system.dual_path,
        replaced_disk=(failure_type is FailureType.DISK),
    )


def parse_archive(
    archive: LogArchive,
    clock: SimulationClock = SimulationClock(),
    fleet: Optional[Fleet] = None,
    strict: bool = False,
) -> FailureDataset:
    """Parse a whole archive into a failure dataset.

    Args:
        archive: per-system logs + snapshot.
        clock: timestamp mapping.
        fleet: reuse an existing fleet instead of parsing the snapshot
            (they must describe the same topology).
        strict: propagate malformed-line errors; the first fault in
            archive order raises.
    """
    if fleet is None:
        fleet = parse_snapshot(archive.snapshot)
    logs: List[Tuple[int, str]] = []
    for (system_id, text), system in zip(
        archive.logs.items(), fleet.system_rows(list(archive.logs)).tolist()
    ):
        if system >= 0:
            logs.append((system, text))
        elif strict:
            # The logs before this one may hold an earlier fault.
            _mine_logs(fleet, logs, clock, strict)
            raise LogFormatError("log for unknown system %r" % system_id)
    # Columnarize once at the parse boundary, system by system in
    # archive order; the dataset sorts the table by detection time.
    return FailureDataset(events=_mine_logs(fleet, logs, clock, strict), fleet=fleet)
