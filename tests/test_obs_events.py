"""Fleet event stream: emission, round-trip, schema gating, integration.

Covers the ``repro.obs.events`` layer itself plus the two emission
sites: the simulation engine's ``fleet`` topology record and the
failure injector's ``failure`` / ``repair`` / ``rebuild`` records.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.events import (
    EVENT_KINDS,
    EVENTS_SCHEMA_VERSION,
    STREAM_NAME,
    FleetEventLog,
    read_events,
    read_events_meta,
)
from tests.conftest import small_engine


class TestFleetEventLog:
    def test_disabled_log_records_nothing(self):
        log = FleetEventLog(enabled=False)
        log.emit("failure", 1.0, failure_type="disk")
        log.emit_many([{"type": "fleet", "kind": "repair", "t": 2.0}])
        assert log.count() == 0
        assert log.events() == []

    def test_emit_stamps_type_kind_and_time(self):
        log = FleetEventLog(enabled=True)
        log.emit("failure", 12.5, failure_type="disk", shelf_id="sh-1")
        (event,) = log.events()
        assert event == {
            "type": "fleet",
            "kind": "failure",
            "t": 12.5,
            "failure_type": "disk",
            "shelf_id": "sh-1",
        }

    def test_non_scalar_fields_are_coerced_to_strings(self):
        log = FleetEventLog(enabled=True)
        log.emit("failure", 0.0, failure_type=object())
        (event,) = log.events()
        assert isinstance(event["failure_type"], str)
        json.dumps(event)  # must be serializable as-is

    def test_clear_drops_the_buffer(self):
        log = FleetEventLog(enabled=True)
        log.emit("failure", 0.0)
        log.clear()
        assert log.count() == 0


class TestRoundTrip:
    def test_flush_then_read_preserves_events(self, tmp_path):
        log = FleetEventLog(enabled=True)
        log.emit("fleet", 0.0, disks=100, duration_seconds=3.0e7)
        log.emit("failure", 10.0, failure_type="disk", shelf_id="sh-1")
        log.emit("repair", 20.0, disk_id="d-1")
        path = tmp_path / "e.jsonl"
        assert log.flush(str(path)) == 3
        events = read_events(str(path))
        assert [e["kind"] for e in events] == ["fleet", "failure", "repair"]
        assert events[1]["failure_type"] == "disk"
        assert events[1]["t"] == 10.0

    def test_meta_line_is_schema_versioned(self, tmp_path):
        log = FleetEventLog(enabled=True)
        log.emit("failure", 0.0)
        path = tmp_path / "e.jsonl"
        log.flush(str(path))
        meta = read_events_meta(str(path))
        assert meta["stream"] == STREAM_NAME
        assert meta["schema"] == EVENTS_SCHEMA_VERSION
        assert meta["events"] == 1
        first = json.loads(path.read_text().splitlines()[0])
        assert first == meta

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {
                    "type": "meta",
                    "stream": STREAM_NAME,
                    "schema": EVENTS_SCHEMA_VERSION + 1,
                }
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="newer than supported"):
            read_events(str(path))

    def test_trace_file_is_rejected_as_foreign_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "meta", "events": 1}\n{"type": "span", "name": "x"}\n'
        )
        with pytest.raises(ValueError, match="not a fleet event stream"):
            read_events(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_events(str(path))

    def test_truncated_line_raises_in_strict_mode(self, tmp_path):
        log = FleetEventLog(enabled=True)
        log.emit("failure", 1.0)
        path = tmp_path / "e.jsonl"
        log.flush(str(path))
        with open(path, "a") as handle:
            handle.write('{"type": "fleet", "kind": "fail')  # torn write
        with pytest.raises(ValueError, match="malformed"):
            read_events(str(path))

    def test_truncated_line_warns_in_lenient_mode(self, tmp_path):
        log = FleetEventLog(enabled=True)
        log.emit("failure", 1.0)
        path = tmp_path / "e.jsonl"
        log.flush(str(path))
        with open(path, "a") as handle:
            handle.write('{"truncated\n')
        warnings = []
        events = read_events(str(path), strict=False, warn=warnings.append)
        assert len(events) == 1
        assert len(warnings) == 1
        assert "malformed" in warnings[0]


class TestModuleHelpers:
    def test_module_emit_routes_to_process_log(self):
        obs.configure(enable=True)
        obs.emit("failure", 5.0, failure_type="disk")
        assert obs.fleet_events() == [
            {"type": "fleet", "kind": "failure", "t": 5.0, "failure_type": "disk"}
        ]

    def test_configure_events_enables_only_the_event_log(self, tmp_path):
        obs.configure(events=str(tmp_path / "e.jsonl"))
        assert obs.OBSERVER.fleet_events.enabled
        assert not obs.OBSERVER.tracer.enabled
        assert not obs.OBSERVER.registry.enabled

    def test_env_var_sets_the_default(self, tmp_path, monkeypatch):
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.ENV_EVENTS, str(target))
        obs.configure()
        assert obs.OBSERVER.events_path == str(target)
        assert obs.OBSERVER.fleet_events.enabled

    def test_export_flushes_the_stream(self, tmp_path):
        path = tmp_path / "e.jsonl"
        obs.configure(events=str(path))
        obs.emit("failure", 1.0, failure_type="disk")
        written = obs.export()
        assert written["events"] == str(path)
        assert [e["kind"] for e in read_events(str(path))] == ["failure"]


class TestSimulationEmission:
    @pytest.fixture(scope="class")
    def event_run(self):
        """One tiny simulation with event emission on (class-shared)."""
        obs.configure(enable=True)
        try:
            result = small_engine(scale=0.002).run(seed=11)
            yield result, obs.fleet_events()
        finally:
            obs.reset()

    def test_stream_contains_every_kind(self, event_run):
        _result, events = event_run
        kinds = {e["kind"] for e in events}
        assert kinds == set(EVENT_KINDS)

    def test_exactly_one_fleet_record_matching_topology(self, event_run):
        result, events = event_run
        fleet_records = [e for e in events if e["kind"] == "fleet"]
        assert len(fleet_records) == 1
        record = fleet_records[0]
        assert record["systems"] == result.fleet.system_count
        assert record["disks"] == result.fleet.disk_count_ever
        assert record["duration_seconds"] == result.fleet.duration_seconds

    def test_one_failure_event_per_delivered_failure(self, event_run):
        result, events = event_run
        failures = [e for e in events if e["kind"] == "failure"]
        assert len(failures) == len(result.injection.events)
        delivered = {
            (e.detect_time, e.failure_type.value)
            for e in result.injection.events
        }
        emitted = {(e["t"], e["failure_type"]) for e in failures}
        assert emitted == delivered

    def test_failure_events_carry_paper_dimensions(self, event_run):
        _result, events = event_run
        failure = next(e for e in events if e["kind"] == "failure")
        for field in (
            "failure_type",
            "system_class",
            "shelf_model",
            "shelf_id",
            "raid_group_id",
            "system_id",
            "disk_id",
        ):
            assert field in failure, field

    def test_rebuild_windows_are_positive(self, event_run):
        _result, events = event_run
        rebuilds = [e for e in events if e["kind"] == "rebuild"]
        disk_failures = [
            e
            for e in events
            if e["kind"] == "failure" and e["failure_type"] == "disk"
        ]
        assert len(rebuilds) == len(disk_failures)
        assert all(e["duration_seconds"] > 0.0 for e in rebuilds)

    def test_repairs_follow_their_failure(self, event_run):
        _result, events = event_run
        repairs = [e for e in events if e["kind"] == "repair"]
        assert repairs, "expected at least one replacement at this scale"
        assert all(e["down_seconds"] >= 0.0 for e in repairs)

    def test_injector_records_are_time_ordered(self, event_run):
        # The topology summary rides at t=0 but is appended post-
        # injection (its disk count includes replacements), so ordering
        # is guaranteed for the injector's records, not globally.
        _result, events = event_run
        times = [e["t"] for e in events if e["kind"] != "fleet"]
        assert times == sorted(times)

    def test_disabled_emission_adds_no_events(self):
        assert not obs.OBSERVER.fleet_events.enabled
        small_engine(scale=0.002).run(seed=11)
        assert obs.OBSERVER.fleet_events.count() == 0

    def test_emission_is_deterministic_per_seed(self, event_run):
        result, events = event_run
        obs.reset()
        obs.configure(enable=True)
        try:
            small_engine(scale=0.002).run(seed=11)
            replay = obs.fleet_events()
        finally:
            obs.reset()
        assert replay == events
