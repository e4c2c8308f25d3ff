"""Incremental (streaming) log parsing.

The batch parser (:mod:`repro.autosupport.parser`) wants the whole log
text; real AutoSupport feeds arrive as line streams over weeks.  The
:class:`StreamingLogParser` accepts lines (or arbitrary text chunks) as
they come, feeds them to the batch parser's cascade/dedup state
machine (:class:`~repro.autosupport.parser.CascadeState`), and yields
each subsystem failure as soon as its RAID-layer line arrives.  Feeding
it a whole log in any chunking produces exactly the batch parser's
events.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.autosupport.messages import parse_line
from repro.autosupport.parser import CascadeState, as_fleet_row, build_event
from repro.errors import LogFormatError
from repro.failures.events import FailureEvent
from repro.failures.types import FailureType
from repro.simulate.clock import SimulationClock
from repro.topology.system import StorageSystem


class StreamingLogParser:
    """Parses one system's log incrementally.

    A system built by hand is packed into a one-system fleet, as the
    batch parser does (:func:`~repro.autosupport.parser.as_fleet_row`).

    Usage::

        parser = StreamingLogParser(system)
        for chunk in feed:                  # any chunking
            for event in parser.feed(chunk):
                handle(event)
        for event in parser.close():        # flush a trailing partial line
            handle(event)
    """

    def __init__(
        self,
        system: StorageSystem,
        clock: SimulationClock = SimulationClock(),
        strict: bool = False,
    ) -> None:
        self.system = system
        self.clock = clock
        self.strict = strict
        # A system built by hand is packed once, as the batch parser does.
        self._row = as_fleet_row(system)
        self._buffer = ""
        self._state = CascadeState()
        self._events_out = 0

    # -- feeding -------------------------------------------------------------

    def feed(self, chunk: str) -> Iterator[FailureEvent]:
        """Consume a text chunk; yield completed failure events.

        Lines may be split across chunks; only complete lines (ending in
        a newline) are processed, the remainder is buffered.
        """
        self._buffer += chunk
        while True:
            newline = self._buffer.find("\n")
            if newline < 0:
                return
            line = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1 :]
            event = self._process_line(line)
            if event is not None:
                yield event

    def close(self) -> Iterator[FailureEvent]:
        """Flush any buffered partial line and finish."""
        if self._buffer.strip():
            event = self._process_line(self._buffer)
            self._buffer = ""
            if event is not None:
                yield event

    @property
    def events_emitted(self) -> int:
        """How many failures this parser has yielded so far."""
        return self._events_out

    # -- internals ------------------------------------------------------------

    def _process_line(self, raw: str) -> Optional[FailureEvent]:
        if not raw.strip():
            return None
        try:
            line = parse_line(self.clock, raw)
        except LogFormatError:
            if self.strict:
                raise
            return None
        if line.disk_id is None:
            return None
        if not line.is_raid_event:
            self._state.observe(line.time, line.disk_id)
            return None
        try:
            failure_type = FailureType.from_raid_event(line.event)
        except ValueError:
            if self.strict:
                raise LogFormatError("unknown RAID event %r" % line.event)
            return None
        occur = self._state.observe(line.time, line.disk_id, failure_type)
        if occur is None:
            return None
        event = build_event(self._row, line, failure_type, occur)
        if event is None:
            if self.strict:
                raise LogFormatError(
                    "disk %r not found in snapshot topology" % line.disk_id
                )
            return None
        self._events_out += 1
        return event


def stream_system_log(
    text: str,
    system: StorageSystem,
    clock: SimulationClock = SimulationClock(),
    chunk_size: int = 4096,
    strict: bool = False,
) -> List[FailureEvent]:
    """Parse a whole log through the streaming parser (for comparison).

    Feeds ``text`` in ``chunk_size`` pieces; the result must equal the
    batch parser's output regardless of the chunking.
    """
    parser = StreamingLogParser(system, clock, strict)
    events: List[FailureEvent] = []
    for start in range(0, len(text), chunk_size):
        events.extend(parser.feed(text[start : start + chunk_size]))
    events.extend(parser.close())
    return events
