"""Log timestamps: the direct reader against ``strptime``."""

from __future__ import annotations

import datetime

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
