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
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import LogFormatError
from repro.failures.injector import InjectionResult
from repro.failures.raidlayer import component_errors_for_failure
from repro.autosupport.messages import format_line
from repro.autosupport.snapshot import write_snapshot
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


def write_logs(
    injection: InjectionResult,
    clock: SimulationClock = SimulationClock(),
) -> LogArchive:
    """Render the injection's events and recovered errors as logs."""
    fleet = injection.fleet
    owners = fleet.slot_system[fleet.disk_slot].tolist()
    serial_index: Dict[str, Tuple[str, str]] = dict(
        zip(
            fleet.disk_ids(np.arange(fleet.disk_count_ever)),
            zip(
                fleet.disk_serials(),
                [fleet.system_ids[owner] for owner in owners],
            ),
        )
    )

    per_system: Dict[str, List[Tuple[float, str]]] = {
        system_id: [] for system_id in fleet.system_ids
    }

    for event in injection.events:
        serial, system_id = serial_index[event.disk_id]
        lines = per_system[system_id]
        for error in component_errors_for_failure(
            event.failure_type, event.disk_id, event.detect_time
        ):
            time = max(0.0, error.time)
            lines.append(
                (time, format_line(clock, time, error.event, event.disk_id, serial))
            )
        lines.append(
            (
                event.detect_time,
                format_line(
                    clock,
                    event.detect_time,
                    event.failure_type.raid_event,
                    event.disk_id,
                    serial,
                ),
            )
        )

    for error in injection.recovered_errors:
        serial, system_id = serial_index.get(error.disk_id, ("", ""))
        if not system_id:
            continue  # disk id unknown to the fleet; drop the noise line
        time = max(0.0, error.time)
        per_system[system_id].append(
            (time, format_line(clock, time, error.event, error.disk_id, serial))
        )

    logs = {}
    for system_id, lines in per_system.items():
        lines.sort(key=lambda pair: pair[0])
        logs[system_id] = "".join(text + "\n" for _, text in lines)
    return LogArchive(logs=logs, snapshot=write_snapshot(injection.fleet))
