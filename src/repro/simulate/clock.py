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
from typing import List, Sequence

import numpy as np

from repro.errors import LogFormatError

#: Start of the observation window: January 1, 2004, 00:00 UTC.
DEFAULT_EPOCH = datetime.datetime(2004, 1, 1, 0, 0, 0)

#: strftime/strptime format used in log lines.
TIMESTAMP_FORMAT = "%a %b %d %H:%M:%S %Y"

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUMBERS = {name: number for number, name in enumerate(_MONTHS, 1)}

#: The date parts of the format around its time of day.
_DAY_HEAD, _, _DAY_TAIL = TIMESTAMP_FORMAT.partition("%H:%M:%S")
_SECONDS_PER_DAY = 86_400
#: Times this far from the epoch keep a sub-microsecond float spacing,
#: which the per-day rendering's rounding margin needs.
_FAST_RANGE = 2.0**32


def _month_key(first, second, third):
    """Three code points as one integer (21 bits each, so distinct)."""
    return first << 42 | second << 21 | third


#: Month names as code-point keys, sorted, and their month numbers.
_MONTH_KEYS, _MONTH_OF_KEY = (
    np.array(column, dtype=np.int64)
    for column in zip(
        *sorted(
            (_month_key(*map(ord, name)), number) for name, number in _MONTH_NUMBERS.items()
        )
    )
)

#: Exactly what :meth:`SimulationClock.format` writes (C locale), a
#: fixed-width layout: month at [4:7], day [8:10], hour [11:13], minute
#: [14:16], second [17:19], year [20:24].  No groups, so other patterns
#: (the log-line scan) can embed it.
WRITTEN_PATTERN = (
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (?:%s) "
    r"[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2} [0-9]{4}" % "|".join(_MONTHS)
)
_WRITTEN = re.compile(WRITTEN_PATTERN)


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

    def format_many(self, sim_seconds: np.ndarray) -> List[str]:
        """:meth:`format` of every time, with one ``strftime`` per day.

        ``timedelta`` rounds to the microsecond, so a time within half a
        microsecond of the next second renders that second.  Times whose
        fraction of a second is 0.999999 or more, and every time when the
        epoch is not on a whole second, go through :meth:`format`.
        """
        times = np.asarray(sim_seconds, dtype=np.float64)
        whole = np.floor(times)
        fast = (times - whole < 0.999999) & (np.abs(times) < _FAST_RANGE)
        if self.epoch.microsecond:
            fast[:] = False
        start = self.epoch.hour * 3600 + self.epoch.minute * 60 + self.epoch.second
        days, of_day = np.divmod(whole[fast].astype(np.int64) + start, _SECONDS_PER_DAY)
        unique_days, day_codes = np.unique(days, return_inverse=True)
        midnight = self.epoch.replace(hour=0, minute=0, second=0)
        dates = [midnight + datetime.timedelta(days=day) for day in unique_days.tolist()]
        heads = [date.strftime(_DAY_HEAD) for date in dates]
        tails = [date.strftime(_DAY_TAIL) for date in dates]
        hours, rest = np.divmod(of_day, 3600)
        minutes, seconds = np.divmod(rest, 60)
        stamps = np.empty(times.size, dtype=object)
        stamps[fast] = [
            "%s%02d:%02d:%02d%s" % (heads[day], hour, minute, second, tails[day])
            for day, hour, minute, second in zip(
                day_codes.tolist(), hours.tolist(), minutes.tolist(), seconds.tolist()
            )
        ]
        stamps[~fast] = [self.format(time) for time in times[~fast].tolist()]
        return stamps.tolist()

    def parse(self, text: str) -> float:
        """Parse a log-line timestamp back to simulation seconds.

        The layout the writer produces is read directly; anything else
        (single-digit fields, other letter case, out-of-range values)
        goes through ``strptime``, so accepted inputs and error messages
        are exactly ``strptime``'s.

        Raises:
            LogFormatError: when the text does not match the format.
        """
        if _WRITTEN.fullmatch(text) is not None:
            try:
                when = datetime.datetime(
                    int(text[20:24]), _MONTH_NUMBERS[text[4:7]], int(text[8:10]),
                    int(text[11:13]), int(text[14:16]), int(text[17:19]),
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

    def parse_written(self, texts: Sequence[str]) -> np.ndarray:
        """:meth:`parse` of timestamps in the writer's layout, as an array.

        Every text must match that layout (``Sun Jul 23 05:43:36 2006``);
        each calendar day is decoded once.  NaN marks a text that names
        no valid instant (a Feb 30, an hour 24), which :meth:`parse`
        words, and every text when the epoch is not on a whole second.
        """
        if self.epoch.microsecond:
            return np.full(len(texts), np.nan)
        if not texts:
            return np.zeros(0, dtype=np.float64)
        # Code points of the fixed-width layout; the fields are ASCII.
        chars = np.array(texts, dtype="U24").view(np.uint32).reshape(len(texts), 24)
        digits = chars.astype(np.int64) - ord("0")

        def number(first: int, last: int) -> np.ndarray:
            value = digits[:, first]
            for column in range(first + 1, last):
                value = value * 10 + digits[:, column]
            return value

        month_keys = _month_key(*(chars[:, column].astype(np.int64) for column in (4, 5, 6)))
        at = np.minimum(np.searchsorted(_MONTH_KEYS, month_keys), _MONTH_KEYS.size - 1)
        hours, minutes, seconds = number(11, 13), number(14, 16), number(17, 19)
        valid = (
            (_MONTH_KEYS[at] == month_keys) & (hours < 24) & (minutes < 60) & (seconds < 60)
        )
        # (year, month, day) packed as year << 11 | month << 7 | day.
        day_keys = (number(20, 24) * 16 + _MONTH_OF_KEY[at]) * 128 + number(8, 10)
        unique_days, day_codes = np.unique(day_keys, return_inverse=True)
        offsets = []
        for key in unique_days.tolist():
            try:
                date = datetime.datetime(key >> 11, (key >> 7) & 15, key & 127)
            except ValueError:
                offsets.append(np.nan)
                continue
            offset = date - self.epoch
            offsets.append(offset.days * _SECONDS_PER_DAY + offset.seconds)
        times = np.asarray(offsets, dtype=np.float64)[day_codes] + (
            hours * 3600 + minutes * 60 + seconds
        )
        times[~valid] = np.nan
        return times
