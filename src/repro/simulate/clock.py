"""Mapping between simulation seconds and wall-clock timestamps.

The study window starts January 2004 (§2.4); the simulator's time axis
is seconds since that instant.  Log files carry syslog-style timestamps
(the paper's Fig. 3 shows ``Sun Jul 23 05:43:36 PDT``), so the log
writer and parser convert through this clock.  Timestamps are rendered
with the year included (unlike classic syslog) so a 44-month window
round-trips unambiguously.
"""

from __future__ import annotations

import dataclasses
import datetime
import re

from repro.errors import LogFormatError

#: Start of the observation window: January 1, 2004, 00:00 UTC.
DEFAULT_EPOCH = datetime.datetime(2004, 1, 1, 0, 0, 0)

#: strftime/strptime format used in log lines.
TIMESTAMP_FORMAT = "%a %b %d %H:%M:%S %Y"

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUMBERS = {name: number for number, name in enumerate(_MONTHS, 1)}

#: Exactly what :meth:`SimulationClock.format` writes (C locale).
_WRITTEN = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (%s) (\d\d) (\d\d):(\d\d):(\d\d) (\d{4})"
    % "|".join(_MONTHS),
    re.ASCII,
)


@dataclasses.dataclass(frozen=True)
class SimulationClock:
    """Converts simulation seconds to datetimes and log timestamps."""

    epoch: datetime.datetime = DEFAULT_EPOCH

    def to_datetime(self, sim_seconds: float) -> datetime.datetime:
        """The wall-clock instant of a simulation time."""
        return self.epoch + datetime.timedelta(seconds=sim_seconds)

    def to_sim_seconds(self, when: datetime.datetime) -> float:
        """Simulation time of a wall-clock instant."""
        return (when - self.epoch).total_seconds()

    def format(self, sim_seconds: float) -> str:
        """Render a log-line timestamp, second resolution."""
        return self.to_datetime(sim_seconds).strftime(TIMESTAMP_FORMAT)

    def parse(self, text: str) -> float:
        """Parse a log-line timestamp back to simulation seconds.

        The layout the writer produces is read directly; anything else
        (single-digit fields, other letter case, out-of-range values)
        goes through ``strptime``, so accepted inputs and error messages
        are exactly ``strptime``'s.

        Raises:
            LogFormatError: when the text does not match the format.
        """
        match = _WRITTEN.fullmatch(text)
        if match is not None:
            month, day, hour, minute, second, year = match.groups()
            try:
                when = datetime.datetime(
                    int(year), _MONTH_NUMBERS[month], int(day),
                    int(hour), int(minute), int(second),
                )
            except ValueError:
                pass  # e.g. Feb 30: strptime below words the error
            else:
                return self.to_sim_seconds(when)
        try:
            when = datetime.datetime.strptime(text, TIMESTAMP_FORMAT)
        except ValueError as exc:
            raise LogFormatError("bad timestamp %r: %s" % (text, exc)) from None
        return self.to_sim_seconds(when)
