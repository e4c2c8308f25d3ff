"""Log-line rendering and tokenizing (the Fig. 3 message dialect).

A line looks like::

    Sun Jul 23 05:43:36 2006 [fci.device.timeout:error]: Adapter 8
    encountered a device timeout on device sh-mr-00012-03/07#0

The structured core — timestamp, ``[event:severity]`` tag, and the disk
identifier embedded in the prose — is what the parser extracts; the
prose varies per event name like real support logs do.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Optional, Tuple

from repro.errors import LogFormatError
from repro.simulate.clock import WRITTEN_PATTERN, SimulationClock

#: Prose templates per event name; ``{disk}`` and ``{serial}`` are
#: substituted.  Unknown events fall back to a generic message.
_TEMPLATES = {
    "fci.device.timeout": "Adapter 8 encountered a device timeout on device {disk}",
    "fci.adapter.reset": "Resetting Fibre Channel adapter 8 (device {disk})",
    "fci.path.failover": "Redirecting I/O for device {disk} to secondary path",
    "scsi.cmd.abortedByHost": "Device {disk}: Command aborted by host adapter",
    "scsi.cmd.selectionTimeout": (
        "Device {disk}: Adapter/target error: Targeted device did not "
        "respond to requested I/O. I/O will be retried."
    ),
    "scsi.cmd.noMorePaths": "Device {disk}: No more paths to device. All retries have failed.",
    "scsi.cmd.retrySuccess": "Device {disk}: Command retry succeeded",
    "scsi.cmd.checkCondition": "Device {disk}: Check condition: sense data logged",
    "scsi.cmd.protocolViolation": "Device {disk}: Protocol violation in command response",
    "scsi.cmd.latencyWarning": "Device {disk}: Command latency exceeded threshold",
    "disk.ioMediumError": "Disk {disk}: medium error detected on read",
    "disk.failurePredicted": "Disk {disk}: failure predicted by health monitor",
    "disk.driver.incompatible": "Disk {disk}: driver rejected device response",
    "disk.slowIO": "Disk {disk}: I/O service time degraded",
    "disk.latencyRecovered": "Disk {disk}: I/O service time back to normal",
    "raid.disk.failed": "File system Disk {disk} S/N [{serial}] failed",
    "raid.config.filesystem.disk.missing": (
        "File system Disk {disk} S/N [{serial}] is missing."
    ),
    "raid.disk.ioerror": "File system Disk {disk} S/N [{serial}] returned bad I/O",
    "raid.disk.timeout.slow": (
        "File system Disk {disk} S/N [{serial}] is not responding in time"
    ),
}

_SEVERITIES = {"info", "warning", "error"}

#: The ``[event:severity]: `` tag after a line's timestamp; ``%(severity)s``
#: names the severity's group, or leaves it uncaptured with ``?:``.
_TAG = r"\[(?P<event>[\w.]+):(%(severity)s\w+)\]: "
_LINE_RE = re.compile(
    r"^(?P<timestamp>\w{3} \w{3} [ \d]\d \d{2}:\d{2}:\d{2} \d{4}) %s(?P<message>.*)$"
    % (_TAG % {"severity": "?P<severity>"})
)
_DISK_RE = re.compile(r"(?:device|Device|Disk) (?P<disk>\S+?/\d{2}#\d+)")
_SERIAL_RE = re.compile(r"S/N \[(?P<serial>[^\]]+)\]")

#: The line boundaries of ``str.splitlines``.
_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: A line laid out as the writer writes it, with no other line boundary
#: in it.  ``findall`` over a whole log gives each such line's
#: timestamp, event and first disk id, as :func:`parse_line` reads
#: them; the batch parser scans logs with it.
WRITTEN_LINE = re.compile(
    r"^(?P<timestamp>%s) %s[^%s]*?%s[^%s]*$"
    % (WRITTEN_PATTERN, _TAG % {"severity": "?:"}, _BOUNDARIES, _DISK_RE.pattern, _BOUNDARIES),
    re.MULTILINE,
)


@dataclasses.dataclass(frozen=True)
class LogLine:
    """One parsed log line.

    Attributes:
        time: simulation seconds (second resolution — logs round).
        event: dotted event name.
        severity: ``info | warning | error``.
        disk_id: the disk referenced by the prose, if any.
        serial: the serial number in the prose, if any.
        message: the free-text part.
    """

    time: float
    event: str
    severity: str
    disk_id: Optional[str]
    serial: Optional[str]
    message: str

    @property
    def layer(self) -> str:
        """The emitting layer (first component of the event name)."""
        return self.event.split(".", 1)[0]

    @property
    def is_raid_event(self) -> bool:
        """Whether this is a RAID-layer event (a subsystem failure mark)."""
        return self.layer == "raid"


@functools.lru_cache(maxsize=1024)
def line_parts(
    event: str, severity: Optional[str] = None
) -> Tuple[str, str, Optional[str]]:
    """The fixed text of ``event``'s lines, as ``(head, middle, tail)``.

    A line reads ``<timestamp> <head><disk id><middle>``; when ``tail``
    is not None, the template logs the serial and ``<serial><tail>``
    follows.  :func:`format_line` and the log writer share these parts.
    """
    if severity is None:
        severity = "info" if event.startswith("raid.") or event.endswith("Recovered") else "error"
    if severity not in _SEVERITIES:
        raise LogFormatError("unknown severity %r" % severity)
    template = _TEMPLATES.get(event)
    if template is None:
        before, middle, tail = "Device ", ": event %s" % event, None
    else:
        before, _, after = template.partition("{disk}")
        middle, serial, tail = after.partition("{serial}")
        if not serial:
            tail = None
    return "[%s:%s]: %s" % (event, severity, before), middle, tail


def format_line(
    clock: SimulationClock,
    time: float,
    event: str,
    disk_id: str,
    serial: str = "",
    severity: Optional[str] = None,
) -> str:
    """Render one log line in the Fig. 3 dialect."""
    head, middle, tail = line_parts(event, severity)
    line = "%s %s%s%s" % (clock.format(time), head, disk_id, middle)
    return line if tail is None else line + (serial or "UNKNOWN") + tail


def parse_line(clock: SimulationClock, line: str) -> LogLine:
    """Parse one log line.

    Raises:
        LogFormatError: when the line does not match the dialect.
    """
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise LogFormatError("unparseable log line: %r" % line[:120])
    time = clock.parse(match.group("timestamp"))
    message = match.group("message")
    disk_match = _DISK_RE.search(message)
    serial_match = _SERIAL_RE.search(message)
    return LogLine(
        time=time,
        event=match.group("event"),
        severity=match.group("severity"),
        disk_id=disk_match.group("disk") if disk_match else None,
        serial=serial_match.group("serial") if serial_match else None,
        message=message,
    )
