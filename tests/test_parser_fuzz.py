"""Fuzz tests: the log parser must survive arbitrary noise.

Real support logs contain truncated lines, interleaved junk, and
encoding accidents.  In lenient mode the parser must neither crash nor
*invent* events, regardless of what garbage surrounds the real lines.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.autosupport.parser import parse_system_log
from repro.autosupport.stream import stream_system_log
from repro.errors import LogFormatError

_noise_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
    max_size=120,
)

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def busy_system(logged_sim):
    system_id = max(
        logged_sim.archive.logs,
        key=lambda sid: logged_sim.archive.logs[sid].count("[raid."),
    )
    return logged_sim.fleet.system(system_id), logged_sim.archive.logs[system_id]


class TestNoiseInjection:
    @given(noise=st.lists(_noise_line, max_size=20), position=st.integers(0, 100))
    @_settings
    def test_noise_never_adds_events(self, busy_system, noise, position):
        system, text = busy_system
        lines = text.splitlines()
        cut = position % (len(lines) + 1)
        # Drop any noise line that would accidentally parse as a real
        # log line (vanishingly unlikely, but be exact).
        noisy = lines[:cut] + [n for n in noise if "[raid." not in n] + lines[cut:]
        baseline = parse_system_log(text, system)
        with_noise = parse_system_log("\n".join(noisy), system)
        assert len(with_noise) == len(baseline)

    @given(seed=st.integers(0, 10_000))
    @_settings
    def test_truncated_logs_never_crash(self, busy_system, seed):
        system, text = busy_system
        cut = seed % max(1, len(text))
        events = parse_system_log(text[:cut], system)
        full = parse_system_log(text, system)
        assert len(events) <= len(full)

    @given(chunk=st.integers(1, 500))
    @_settings
    def test_streaming_chunking_never_changes_results(self, busy_system, chunk):
        system, text = busy_system
        assert len(stream_system_log(text, system, chunk_size=chunk)) == len(
            parse_system_log(text, system)
        )

    def test_binaryish_garbage(self, busy_system):
        system, _text = busy_system
        garbage = "\x00\x01\x02 not a log \xff\n[weird:thing]: hello\n"
        assert parse_system_log(garbage, system) == []

    def test_shuffled_lines_no_invented_events(self, busy_system):
        import random

        system, text = busy_system
        lines = text.splitlines()
        rng = random.Random(0)
        shuffled = lines[:]
        rng.shuffle(shuffled)
        events = parse_system_log("\n".join(shuffled), system)
        baseline = parse_system_log(text, system)
        # Shuffling can merge duplicates differently but can never
        # invent events beyond the RAID lines present.
        assert len(events) <= len(baseline)
        assert len(events) > 0


def _mined(text, system, strict):
    """Events, or the strict-mode error text."""
    try:
        return parse_system_log(text, system, strict=strict)
    except LogFormatError as exc:
        return str(exc)


class TestLineSeparators:
    """``str.splitlines`` boundaries other than ``\\n`` split lines too."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_crlf_endings(self, busy_system, strict):
        system, text = busy_system
        assert _mined(text.replace("\n", "\r\n"), system, strict) == _mined(
            text, system, strict
        )

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("separator", ["\x1c", "\u2028"])
    def test_separator_inside_a_line(self, busy_system, separator, strict):
        system, text = busy_system
        lines = text.splitlines()
        raid = next(i for i, raw in enumerate(lines) if "[raid." in raw)
        # After the tag of a RAID line and inside the timestamp of a
        # lower-layer line: both halves are then malformed lines.
        lines[raid] = lines[raid].replace("]: ", "]: " + separator, 1)
        lines[raid - 1] = lines[raid - 1][:5] + separator + lines[raid - 1][5:]
        split = "\n".join(lines)
        mined = _mined(split, system, strict)
        assert mined == _mined(split.replace(separator, "\n"), system, strict)
        if not strict:
            assert len(mined) == len(parse_system_log(text, system)) - 1
