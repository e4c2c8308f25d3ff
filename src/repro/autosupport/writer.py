"""Render an injection result into per-system AutoSupport-style logs.

Each subsystem failure becomes a cascade: the lower-layer error lines
(FC/SCSI/disk driver) leading up to it, then the RAID-layer event that
tags the failure type — the structure of the paper's Fig. 3.  Recovered
incidents (multipath failovers, successful retries) appear as partial
cascades with no RAID-layer line, so a naive parser that counted any
error line would overcount, exactly as §2.5 warns.
"""

from __future__ import annotations

import dataclasses
import gzip
import pathlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import LogFormatError
from repro.failures.injector import InjectionResult
from repro.failures.raidlayer import component_errors_for_failure, component_errors_for_recovery
from repro.failures.types import ALL_FAILURE_TYPES
from repro.autosupport.messages import line_parts
from repro.autosupport.snapshot import write_snapshot
from repro.fleet.fleet import serial_text
from repro.simulate.clock import SimulationClock


@dataclasses.dataclass
class LogArchive:
    """A bundle of per-system logs plus the configuration snapshot.

    Attributes:
        logs: system id -> full log text (newline-terminated lines).
        snapshot: the fleet configuration snapshot text.
    """

    logs: Dict[str, str]
    snapshot: str

    def total_lines(self) -> int:
        """Total log lines across all systems."""
        return sum(text.count("\n") for text in self.logs.values())

    def save_to(self, directory: str, compress: bool = False) -> None:
        """Write the archive to a directory (one log file per system).

        Args:
            directory: output directory (created if absent).
            compress: gzip each log (``.log.gz``) — real AutoSupport
                archives ship compressed; the loader handles both forms.
        """
        path = pathlib.Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / "snapshot.conf").write_text(self.snapshot)
        for system_id, text in self.logs.items():
            if compress:
                with gzip.open(path / ("%s.log.gz" % system_id), "wt") as handle:
                    handle.write(text)
            else:
                (path / ("%s.log" % system_id)).write_text(text)

    @classmethod
    def load_from(cls, directory: str) -> "LogArchive":
        """Read an archive previously written with :meth:`save_to`.

        Plain ``.log`` and gzipped ``.log.gz`` files may coexist; a
        system present in both forms raises (ambiguous archive).
        """
        path = pathlib.Path(directory)
        snapshot_file = path / "snapshot.conf"
        if not snapshot_file.exists():
            raise LogFormatError("no snapshot.conf in %s" % directory)
        logs: Dict[str, str] = {}
        for log_file in sorted(path.glob("*.log")):
            logs[log_file.stem] = log_file.read_text()
        for log_file in sorted(path.glob("*.log.gz")):
            system_id = log_file.name[: -len(".log.gz")]
            if system_id in logs:
                raise LogFormatError(
                    "system %s present both plain and gzipped" % system_id
                )
            with gzip.open(log_file, "rt") as handle:
                logs[system_id] = handle.read()
        return cls(logs=logs, snapshot=snapshot_file.read_text())


#: Per failure type, the lines of a delivered failure and of a recovered
#: incident as (event name, seconds before the record's time): the
#: failure's cascade (repro.failures.raidlayer), then its RAID-layer
#: event at detection; the recovered incident's component errors.
_DELIVERED_LINES = [
    [(error.event, -error.time) for error in component_errors_for_failure(failure_type, "", 0.0)]
    + [(failure_type.raid_event, 0.0)]
    for failure_type in ALL_FAILURE_TYPES
]
_RECOVERED_LINES = [
    [(error.event, -error.time) for error in component_errors_for_recovery(failure_type, "", 0.0)]
    for failure_type in ALL_FAILURE_TYPES
]

#: Every event name a line can carry, and its code.
_NAMES = sorted(
    {name for lines in _DELIVERED_LINES + _RECOVERED_LINES for name, _ in lines}
)
_NAME_CODE = {name: code for code, name in enumerate(_NAMES)}


def _line_table(per_type: Sequence[Sequence[Tuple[str, float]]]) -> Tuple[np.ndarray, ...]:
    """Per failure type code: its lines' name codes and leads (padded to
    the longest type), and its line count."""
    width = max(len(lines) for lines in per_type)
    names = np.zeros((len(per_type), width), dtype=np.int64)
    leads = np.zeros((len(per_type), width), dtype=np.float64)
    for code, lines in enumerate(per_type):
        names[code, : len(lines)] = [_NAME_CODE[name] for name, _ in lines]
        leads[code, : len(lines)] = [lead for _, lead in lines]
    return names, leads, np.array([len(lines) for lines in per_type])


_DELIVERED = _line_table(_DELIVERED_LINES)
_RECOVERED = _line_table(_RECOVERED_LINES)


def _expand(
    line_table: Tuple[np.ndarray, ...], types: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every record's lines, record by record: (record, name code, time)."""
    names, leads, counts = line_table
    per_record = counts[types]
    record = np.repeat(np.arange(types.size), per_record)
    step = np.arange(record.size) - np.repeat(np.cumsum(per_record) - per_record, per_record)
    kind = types[record]
    return record, names[kind, step], times[record] - leads[kind, step]


def write_logs(
    injection: InjectionResult,
    clock: SimulationClock = SimulationClock(),
) -> LogArchive:
    """Render the injection's events and recovered errors as logs."""
    with obs.span("autosupport.write.lines"):
        logs = _system_logs(injection, clock)
    with obs.span("autosupport.write.snapshot"):
        snapshot = write_snapshot(injection.fleet)
    return LogArchive(logs=logs, snapshot=snapshot)


def _system_logs(injection: InjectionResult, clock: SimulationClock) -> Dict[str, str]:
    """Every system's log text, in fleet order.

    A system's lines are stably sorted by their time, clamped at 0:
    first the delivered failures' lines, in event-table order, then the
    recovered incidents' lines, in :attr:`InjectionResult.recovered_errors`
    order (by unclamped time, then expansion order).  One lexsort over
    (system, clamped time, delivered first, unclamped time, expansion
    order) gives that order.
    """
    fleet = injection.fleet
    table = injection.to_table()
    event_rows = fleet.disk_rows(table.disk_ids.values)[table.disk_codes]
    if (event_rows < 0).any():
        missing = table.disk_codes[np.argmin(event_rows)]
        raise LogFormatError("event disk %r is not in the fleet" % table.disk_ids.value(missing))
    event_of, delivered_names, delivered_times = _expand(
        _DELIVERED, table.type_codes, table.detect_time
    )
    types, times, slots, gens = injection.recovered_batch.incidents()
    incident_of, recovered_names, recovered_times = _expand(_RECOVERED, types, times)
    # A disk the lifetime table never held logs nothing.
    incident_rows = fleet.bay_rows(slots, gens)[incident_of]
    kept = incident_rows >= 0

    rows = np.concatenate((event_rows[event_of], incident_rows[kept]))
    names = np.concatenate((delivered_names, recovered_names[kept]))
    unclamped = np.concatenate((np.zeros(event_of.size), recovered_times[kept]))
    recovered = np.arange(rows.size) >= event_of.size
    clamped = np.maximum(np.concatenate((delivered_times, recovered_times[kept])), 0.0)
    owners = fleet.slot_system[fleet.disk_slot[rows]]
    order = np.lexsort((np.arange(rows.size), unclamped, recovered, clamped, owners))

    disks, disk_codes = np.unique(rows[order], return_inverse=True)
    disk_ids = fleet.disk_ids(disks)
    serials = [serial_text(value) or "UNKNOWN" for value in fleet.disk_serial[disks].tolist()]
    parts = [line_parts(name) for name in _NAMES]
    lines = [
        "%s %s%s%s\n" % (stamp, head, disk_ids[disk], middle)
        if tail is None
        else "%s %s%s%s%s%s\n" % (stamp, head, disk_ids[disk], middle, serials[disk], tail)
        for stamp, (head, middle, tail), disk in zip(
            clock.format_many(clamped[order]),
            [parts[name] for name in names[order].tolist()],
            disk_codes.tolist(),
        )
    ]
    bounds = np.searchsorted(owners[order], np.arange(fleet.system_count + 1)).tolist()
    return {
        system_id: "".join(lines[first:last])
        for system_id, first, last in zip(fleet.system_ids, bounds, bounds[1:])
    }
