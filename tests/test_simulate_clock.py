"""Log timestamps: the direct reader against ``strptime``, and the
batch renderer and reader against the one-stamp methods."""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro.errors import LogFormatError
from repro.simulate.clock import TIMESTAMP_FORMAT, SimulationClock
from repro.simulate.scenario import run_scenario

CLOCK = SimulationClock()


def _strptime(text):
    """The reference: what ``parse`` did before it read the layout itself."""
    try:
        when = datetime.datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError as exc:
        return "bad timestamp %r: %s" % (text, exc)
    return CLOCK.to_sim_seconds(when)


def _parse(text):
    try:
        return CLOCK.parse(text)
    except LogFormatError as exc:
        return str(exc)


def test_every_timestamp_of_an_archive():
    archive = run_scenario("paper-default", scale=0.02, seed=5, via_logs=True).archive
    stamps = [
        line[:24]
        for text in archive.logs.values()
        for line in text.splitlines()
    ]
    assert len(stamps) > 10_000
    for stamp in stamps:
        assert _parse(stamp) == _strptime(stamp)


@pytest.mark.parametrize(
    "text",
    [
        "Sun Jul 23 05:43:36 2006",
        "Sun Jul  5 05:43:36 2006",  # space-padded day
        "sun JUL 23 05:43:36 2006",  # letter case
        "Mon Feb 28 1:2:3 2005",  # single-digit fields
        "Mon Feb 29 01:02:03 2004",  # leap day
        "Mon Feb 29 01:02:03 2005",  # no such day
        "Mon Feb 30 00:00:00 2005",
        "Mon Feb 00 01:02:03 2004",
        "Mon Feb 28 24:00:00 2005",
        "Mon Feb 28 23:59:60 2005",
        "Mon Feb 28 01:02:03 0000",
        "Xyz Feb 28 01:02:03 2005",
        "Mon Feb 28 01:02:03 2005 ",
        "Mon Feb 28 01:02:03",
        "",
    ],
)
def test_other_layouts_match_strptime(text):
    assert _parse(text) == _strptime(text)


_EDGE_TIMES = [
    0.0,
    -0.0,
    0.5,
    -0.5,
    -1e-7,
    59.9999994,
    59.9999996,
    86_399.999999,
    86_399.9999996,
    86_400.0,
    1_234_567.9999995,
    -86_400.0000004,
    115_000_000.25,
    3.0e9,
    2.0**32 + 0.5,
]


@pytest.mark.parametrize(
    "epoch",
    [
        datetime.datetime(2004, 1, 1),
        datetime.datetime(2004, 2, 28, 23, 59, 58),
        datetime.datetime(2004, 1, 1, 0, 0, 0, 250_000),
    ],
)
def test_format_many_equals_format(epoch):
    clock = SimulationClock(epoch=epoch)
    spread = np.random.default_rng(3).uniform(-1.0e6, 1.2e8, 2000)
    times = np.concatenate((_EDGE_TIMES, spread, np.floor(spread) + 0.9999996))
    assert clock.format_many(times) == [clock.format(time) for time in times.tolist()]


def test_parse_written_equals_parse():
    archive = run_scenario("paper-default", scale=0.002, seed=5, via_logs=True).archive
    stamps = [line[:24] for text in archive.logs.values() for line in text.splitlines()]
    stamps += CLOCK.format_many(np.array(_EDGE_TIMES[:-2]))
    assert CLOCK.parse_written(stamps).tolist() == [CLOCK.parse(stamp) for stamp in stamps]


@pytest.mark.parametrize(
    "stamp",
    [
        "Mon Feb 29 01:02:03 2005",
        "Mon Feb 30 00:00:00 2004",
        "Mon Feb 00 01:02:03 2004",
        "Mon Feb 28 24:00:00 2005",
        "Mon Feb 28 23:60:00 2005",
        "Mon Feb 28 23:59:60 2005",
        "Mon Feb 28 01:02:03 0000",
    ],
)
def test_parse_written_marks_what_parse_words(stamp):
    # parse() hands these to strptime, which raises; the batch marks them.
    good = "Mon Feb 28 01:02:03 2005"
    times = CLOCK.parse_written([good, stamp])
    assert times[0] == CLOCK.parse(good)
    assert np.isnan(times[1])
    with pytest.raises(LogFormatError):
        CLOCK.parse(stamp)
    late = SimulationClock(epoch=datetime.datetime(2004, 1, 1, 0, 0, 0, 1))
    assert np.isnan(late.parse_written([good])).all()
