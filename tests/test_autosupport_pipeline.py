"""Tests for the log writer + parser pipeline (end to end)."""

import copy
import dataclasses

import pytest

from repro.autosupport.messages import _TEMPLATES, format_line, parse_line
from repro.autosupport.parser import parse_archive, parse_system_log
from repro.autosupport.stream import stream_system_log
from repro.autosupport.writer import LogArchive, write_logs
from repro.core.columns import EventTable
from repro.errors import LogFormatError, TopologyError
from repro.failures.injector import InjectionResult
from repro.failures.raidlayer import CASCADES
from repro.failures.types import FailureType
from repro.fleet.fleet import serial_text
from repro.simulate.clock import SimulationClock
from repro.simulate.scenario import run_scenario
from repro.simulate.vector.emit import RecoveredBatch
from repro.topology.system import StorageSystem

CLOCK = SimulationClock()


@pytest.fixture(scope="module")
def archive(logged_sim):
    return logged_sim.archive


@pytest.fixture(scope="module")
def busiest(logged_sim):
    system_id = max(
        logged_sim.archive.logs,
        key=lambda sid: logged_sim.archive.logs[sid].count("[raid."),
    )
    return logged_sim.fleet.system(system_id), logged_sim.archive.logs[system_id]


def _one_event_injection(logged_sim, detect_time):
    """The logged simulation's first event alone, detected at ``detect_time``."""
    event = logged_sim.injection.events[0]
    moved = dataclasses.replace(
        event,
        occur_time=min(event.occur_time, detect_time),
        detect_time=detect_time,
    )
    return event, InjectionResult(
        table=EventTable.from_events([moved]),
        recovered_errors=RecoveredBatch(logged_sim.fleet),
        fleet=logged_sim.fleet,
    )


def _by_hand(system, shelves):
    """A copy of ``system`` built from objects, holding ``shelves``."""
    return StorageSystem(
        system.system_id,
        system.system_class,
        system.shelf_model,
        system.primary_disk_model,
        system.dual_path,
        system.deploy_time,
        shelves=shelves,
        raid_groups=system.raid_groups,
    )


def _mix_disk_models(shelves):
    next(disk for shelf in shelves for disk in shelf.iter_disks()).model += "-other"


def _move_first_bay_last(shelves):
    shelves[0].slots.append(shelves[0].slots.pop(0))


def _strict_error(text, system):
    with pytest.raises(LogFormatError) as info:
        parse_system_log(text, system, strict=True)
    return str(info.value)


class TestWriter:
    def test_one_log_per_system(self, archive, logged_sim):
        assert set(archive.logs) == {
            s.system_id for s in logged_sim.fleet.systems
        }

    def test_cascades_precede_raid_events(self, archive):
        clock = SimulationClock()
        from repro.autosupport.messages import parse_line

        for text in archive.logs.values():
            lines = [parse_line(clock, raw) for raw in text.splitlines()]
            times = [line.time for line in lines]
            assert times == sorted(times)

    def test_raid_event_count_matches_truth(self, archive, logged_sim):
        raid_lines = sum(
            1
            for text in archive.logs.values()
            for raw in text.splitlines()
            if "[raid." in raw
        )
        assert raid_lines == len(logged_sim.injection.events)

    def test_recovered_incidents_present_without_raid_lines(self, archive):
        failovers = sum(
            text.count("fci.path.failover") for text in archive.logs.values()
        )
        retries = sum(
            text.count("scsi.cmd.retrySuccess") for text in archive.logs.values()
        )
        assert failovers + retries > 0

    def test_snapshot_attached(self, archive):
        assert archive.snapshot.startswith("[meta]")

    @pytest.mark.parametrize(
        "fraction, second", [(0.9999996, 1), (0.9999994, 0), (0.999999, 0), (0.5, 0)]
    )
    def test_timestamps_round_like_clock_format(self, logged_sim, fraction, second):
        # timedelta rounds to the microsecond, so k + 0.9999996 renders k + 1.
        whole = float(int(logged_sim.injection.events[0].detect_time))
        event, injection = _one_event_injection(logged_sim, whole + fraction)
        fleet = logged_sim.fleet
        serial = serial_text(int(fleet.disk_serial[fleet.find_disk(event.disk_id)]))
        detect = whole + fraction
        expected = [
            format_line(CLOCK, max(0.0, detect - lead), name, event.disk_id, serial)
            for _layer, name, lead in CASCADES[event.failure_type]
        ]
        expected.append(
            format_line(
                CLOCK, detect, event.failure_type.raid_event, event.disk_id, serial
            )
        )
        text = write_logs(injection).logs[event.system_id]
        assert text == "".join(line + "\n" for line in expected)
        assert text.splitlines()[-1].startswith(CLOCK.format(whole + second) + " [raid.")

    def test_lines_equal_format_line_for_every_event_name(self):
        # The operator-error scenario's cascades also log event names
        # with no template of their own (the fallback prose).
        sim = run_scenario("operator-error", scale=0.002, seed=9, via_logs=True)
        names = set()
        for text in sim.archive.logs.values():
            for raw in text.splitlines():
                line = parse_line(CLOCK, raw)
                names.add(line.event)
                assert raw == format_line(
                    CLOCK, line.time, line.event, line.disk_id, line.serial or ""
                )
        assert set(_TEMPLATES) <= names
        assert names - set(_TEMPLATES)


class TestRoundTripViaDisk(object):
    def test_save_and_load(self, archive, tmp_path):
        archive.save_to(str(tmp_path / "logs"))
        reloaded = LogArchive.load_from(str(tmp_path / "logs"))
        assert reloaded.logs == archive.logs
        assert reloaded.snapshot == archive.snapshot

    def test_load_missing_snapshot(self, tmp_path):
        from repro.errors import LogFormatError

        with pytest.raises(LogFormatError):
            LogArchive.load_from(str(tmp_path))

    def test_gzip_roundtrip(self, archive, tmp_path):
        archive.save_to(str(tmp_path / "gz"), compress=True)
        reloaded = LogArchive.load_from(str(tmp_path / "gz"))
        assert reloaded.logs == archive.logs

    def test_mixed_plain_and_gzip_rejected(self, archive, tmp_path):
        from repro.errors import LogFormatError

        target = tmp_path / "mixed"
        archive.save_to(str(target), compress=False)
        archive.save_to(str(target), compress=True)
        with pytest.raises(LogFormatError):
            LogArchive.load_from(str(target))

    def test_gzip_files_smaller(self, archive, tmp_path):
        import pathlib

        archive.save_to(str(tmp_path / "plain"), compress=False)
        archive.save_to(str(tmp_path / "zipped"), compress=True)
        plain = sum(
            f.stat().st_size for f in pathlib.Path(tmp_path / "plain").glob("*.log")
        )
        zipped = sum(
            f.stat().st_size
            for f in pathlib.Path(tmp_path / "zipped").glob("*.log.gz")
        )
        assert zipped < plain


class TestParser:
    def test_mined_counts_match_ground_truth(self, archive, logged_sim):
        mined = parse_archive(archive, fleet=logged_sim.fleet, strict=True)
        assert mined.counts_by_type() == logged_sim.dataset.counts_by_type()

    def test_mined_events_match_detection_times(self, archive, logged_sim):
        mined = parse_archive(archive, fleet=logged_sim.fleet)
        truth = logged_sim.injection.events
        mined_keys = sorted(
            (e.disk_id, e.failure_type.value, round(e.detect_time))
            for e in mined.events
        )
        truth_keys = sorted(
            (e.disk_id, e.failure_type.value, int(e.detect_time))
            for e in truth
        )
        assert mined_keys == truth_keys

    def test_parse_without_fleet_uses_snapshot(self, archive, logged_sim):
        mined = parse_archive(archive)  # rebuilds the fleet from text
        assert mined.fleet.system_count == logged_sim.fleet.system_count
        assert len(mined.events) == len(logged_sim.injection.events)

    def test_onset_before_detection(self, archive, logged_sim):
        mined = parse_archive(archive, fleet=logged_sim.fleet)
        for event in mined.events:
            assert event.occur_time <= event.detect_time

    def test_noise_lines_skipped_leniently(self, logged_sim):
        system = logged_sim.fleet.systems[0]
        text = "GARBAGE LINE\n" + logged_sim.archive.logs[system.system_id]
        events = parse_system_log(text, system)  # lenient by default
        assert isinstance(events, list)

    def test_noise_lines_raise_in_strict_mode(self, logged_sim):
        from repro.errors import LogFormatError

        system = logged_sim.fleet.systems[0]
        text = "GARBAGE LINE\n" + logged_sim.archive.logs[system.system_id]
        with pytest.raises(LogFormatError):
            parse_system_log(text, system, strict=True)

    def test_duplicate_raid_events_deduplicated(self, logged_sim):
        system_id = max(
            logged_sim.archive.logs, key=lambda sid: logged_sim.archive.logs[sid].count("[raid.")
        )
        system = logged_sim.fleet.system(system_id)
        text = logged_sim.archive.logs[system_id]
        raid_lines = [raw for raw in text.splitlines() if "[raid." in raw]
        assert raid_lines
        doubled = text + raid_lines[0] + "\n"
        base = parse_system_log(text, system)
        withdup = parse_system_log(doubled, system)
        # Appending a copy of an existing RAID line within the dedup
        # window must not add an event.
        assert len(withdup) <= len(base) + 1

    def test_strptime_only_timestamps_mine_the_same_events(self, busiest):
        system, text = busiest
        lines = text.splitlines()
        # Lower case ("sun jul 23") and a space-padded day ("Jul  3"):
        # only strptime reads these.
        rewritten = [
            raw[:24].lower() + raw[24:] if index % 2 else raw
            for index, raw in enumerate(lines)
        ]
        rewritten = [
            raw[:8] + " " + raw[9:] if raw[8] == "0" else raw for raw in rewritten
        ]
        assert rewritten != lines
        assert any(raw[8] == " " for raw in rewritten)
        assert parse_system_log("\n".join(rewritten), system, strict=True) == (
            parse_system_log(text, system, strict=True)
        )

    def test_strict_errors_name_the_fault(self, busiest, logged_sim):
        system, text = busiest
        assert _strict_error("GARBAGE LINE\n" + text, system) == (
            "unparseable log line: 'GARBAGE LINE'"
        )
        raid = next(raw for raw in text.splitlines() if "[raid." in raw)
        event = raid.split("[", 1)[1].split(":", 1)[0]
        unknown = raid.replace(event, "raid.disk.exploded")
        assert _strict_error(text + unknown + "\n", system) == (
            "unknown RAID event 'raid.disk.exploded'"
        )
        disk = parse_line(CLOCK, raid).disk_id
        stranger = raid.replace(disk, "sh-nowhere-00/00#0")
        assert _strict_error(text + stranger + "\n", system) == (
            "disk 'sh-nowhere-00/00#0' not found in snapshot topology"
        )
        other = next(s for s in logged_sim.fleet.systems if s.system_id != system.system_id)
        foreign = raid.replace(disk, "%s/00#0" % logged_sim.fleet.shelf_ids[
            logged_sim.fleet.system_shelf_start[other.fleet_index]
        ])
        assert _strict_error(text + foreign + "\n", system) == (
            "disk %r not found in snapshot topology" % parse_line(CLOCK, foreign).disk_id
        )
        logs = dict(logged_sim.archive.logs, **{"sys-unknown": raid + "\n"})
        with pytest.raises(LogFormatError) as info:
            parse_archive(
                LogArchive(logs=logs, snapshot=logged_sim.archive.snapshot),
                fleet=logged_sim.fleet,
                strict=True,
            )
        assert str(info.value) == "log for unknown system 'sys-unknown'"

    def test_hand_built_system_mines_the_same_events(self, busiest):
        system, text = busiest
        by_hand = _by_hand(system, system.shelves)
        assert by_hand.fleet is None
        mined = parse_system_log(text, system, strict=True)
        assert parse_system_log(text, by_hand, strict=True) == mined
        assert stream_system_log(text, by_hand, strict=True) == mined

    @pytest.mark.parametrize(
        "change, message",
        [
            (_mix_disk_models, "model '.*-other' differs from system"),
            (_move_first_bay_last, "is not bay 00 of shelf"),
        ],
        ids=["mixed-disk-models", "bay-off-its-position"],
    )
    def test_hand_built_system_a_fleet_cannot_hold_is_rejected(self, busiest, change, message):
        # Both parsers resolve disks through a packed fleet, so both
        # refuse what packing refuses.
        system, text = busiest
        shelves = copy.deepcopy(system.shelves)
        change(shelves)
        by_hand = _by_hand(system, shelves)
        with pytest.raises(TopologyError, match=message):
            parse_system_log(text, by_hand)
        with pytest.raises(TopologyError, match=message):
            stream_system_log(text, by_hand)

    def test_disk_topology_attributes_populated(self, archive, logged_sim):
        mined = parse_archive(archive, fleet=logged_sim.fleet)
        for event in mined.events[:50]:
            system = logged_sim.fleet.system(event.system_id)
            assert event.shelf_model == system.shelf_model
            assert event.system_class == system.system_class.value
            assert event.raid_group_id
            assert event.disk_model
