"""Parse AutoSupport-style logs back into failure datasets.

The parser follows the paper's methodology (§2.5): only RAID-layer
events count as storage subsystem failures; the lower-layer cascade
preceding a RAID event supplies the incident's onset time; cascades
with no RAID-layer event (retries, failovers) are ignored; duplicate
RAID events for the same disk and type within an hour are collapsed.
Topology attributes (models, class, RAID group, path configuration)
come from the configuration snapshot, as in the real study.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.autosupport.messages import LogLine, parse_line
from repro.autosupport.writer import LogArchive
from repro.autosupport.snapshot import parse_snapshot
from repro.core.columns import EventTable
from repro.core.dataset import DEDUP_WINDOW_SECONDS, FailureDataset
from repro.errors import LogFormatError
from repro.failures.events import FailureEvent
from repro.failures.types import FailureType
from repro.fleet.fleet import Fleet
from repro.simulate.clock import SimulationClock
from repro.topology.system import StorageSystem

#: How far back before a RAID event the cascade's first line may lie.
CASCADE_WINDOW_SECONDS = 600.0


def parse_system_log(
    text: str,
    system: StorageSystem,
    clock: SimulationClock = SimulationClock(),
    strict: bool = False,
) -> List[FailureEvent]:
    """Extract the subsystem failures recorded in one system's log.

    Args:
        text: full log text.
        system: the owning system (from the parsed snapshot).
        clock: timestamp mapping.
        strict: raise on unparseable lines instead of skipping them
            (real log mining tolerates noise; tests use strict mode).

    Returns:
        Events in detection-time order, duplicates collapsed.
    """
    lines: List[LogLine] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        try:
            lines.append(parse_line(clock, raw))
        except LogFormatError:
            if strict:
                raise
    lines.sort(key=lambda line: line.time)

    # Most recent lower-layer line time per disk, to date the cascade onset.
    last_lower: Dict[str, float] = {}
    last_raid: Dict[Tuple[str, FailureType], float] = {}
    events: List[FailureEvent] = []
    for line in lines:
        if line.disk_id is None:
            continue
        if not line.is_raid_event:
            last_lower[line.disk_id] = min(
                last_lower.get(line.disk_id, line.time), line.time
            ) if _within_cascade(last_lower.get(line.disk_id), line.time) else line.time
            continue
        try:
            failure_type = FailureType.from_raid_event(line.event)
        except ValueError:
            if strict:
                raise LogFormatError("unknown RAID event %r" % line.event)
            continue
        key = (line.disk_id, failure_type)
        previous = last_raid.get(key)
        if previous is not None and line.time - previous < DEDUP_WINDOW_SECONDS:
            continue
        last_raid[key] = line.time
        onset = last_lower.get(line.disk_id)
        occur = (
            onset
            if onset is not None and line.time - onset <= CASCADE_WINDOW_SECONDS
            else line.time
        )
        event = build_event(system, line, failure_type, occur)
        if event is not None:
            events.append(event)
        elif strict:
            raise LogFormatError(
                "disk %r not found in snapshot topology" % line.disk_id
            )
    return events


def _within_cascade(previous: Optional[float], time: float) -> bool:
    return previous is not None and time - previous <= CASCADE_WINDOW_SECONDS


def build_event(
    system: StorageSystem,
    line: LogLine,
    failure_type: FailureType,
    occur_time: float,
) -> Optional[FailureEvent]:
    """Materialize a RAID-layer log line into a :class:`FailureEvent`.

    Resolves the line's disk id against the system's snapshot topology
    (bay, then disk generation within the bay) and attaches every
    topology attribute the analyses group by.  Returns ``None`` when
    the disk cannot be found — callers decide whether that is noise to
    skip or (in strict mode) an error.  Shared by the batch parser and
    the streaming parser.
    """
    found = _locate(system, line.disk_id)
    if found is None:
        return None
    shelf_id, raid_group_id, disk_model = found
    return FailureEvent(
        occur_time=min(occur_time, line.time),
        detect_time=line.time,
        failure_type=failure_type,
        disk_id=line.disk_id,
        shelf_id=shelf_id,
        raid_group_id=raid_group_id,
        system_id=system.system_id,
        system_class=system.system_class.value,
        disk_model=disk_model,
        shelf_model=system.shelf_model,
        dual_path=system.dual_path,
        replaced_disk=(failure_type is FailureType.DISK),
    )


def _locate(system: StorageSystem, disk_id: str) -> Optional[Tuple[str, str, str]]:
    """(shelf id, RAID group id, model) of a disk of ``system``, or None.

    A system of a fleet answers from the fleet's arrays; a system built
    by hand from its objects.
    """
    fleet = system.fleet
    if fleet is None:
        try:
            slot = system.slot_by_key(disk_id.rsplit("#", 1)[0])
        except Exception:
            return None
        for disk in slot.disks:
            if disk.disk_id == disk_id:
                return disk.shelf_id, slot.raid_group_id, disk.model
        return None
    row = fleet.find_disk(disk_id)
    if row < 0:
        return None
    slot = fleet.disk_slot[row]
    if fleet.slot_system[slot] != system.fleet_index:
        return None
    group = fleet.slot_group[slot]
    return (
        fleet.shelf_ids[fleet.slot_shelf[slot]],
        fleet.group_ids[group] if group >= 0 else "",
        system.primary_disk_model,
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
        strict: propagate malformed-line errors.
    """
    if fleet is None:
        fleet = parse_snapshot(archive.snapshot)
    events: List[FailureEvent] = []
    for system_id, text in archive.logs.items():
        try:
            system = fleet.system(system_id)
        except Exception:
            if strict:
                raise LogFormatError("log for unknown system %r" % system_id)
            continue
        events.extend(parse_system_log(text, system, clock, strict))
    # Columnarize once at the parse boundary; detect-time sorting
    # happens on the arrays instead of the dataclass list.
    return FailureDataset(events=EventTable.from_events(events), fleet=fleet)
