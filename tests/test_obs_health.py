"""Fleet-health aggregation: rolling AFR, burst check, top shelf models.

The synthetic streams here are built so the expected statistics can be
computed by hand; one integration test folds a real simulated stream
and checks the paper-level qualitative result (failures are bursty:
P(2) far above the independence prediction P(1)^2/2, Finding 11).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.health import (
    BURST_SCOPES,
    FleetHealth,
    health_from_events,
)
from repro.obs.registry import MetricsRegistry
from repro.units import SECONDS_PER_YEAR
from tests.conftest import small_engine


def fleet_event(disks=100, shelves=10, raid_groups=20, years=1.0):
    return {
        "kind": "fleet",
        "t": 0.0,
        "systems": 5,
        "shelves": shelves,
        "raid_groups": raid_groups,
        "disks": disks,
        "duration_seconds": years * SECONDS_PER_YEAR,
    }


def failure(t, failure_type="disk", shelf="sh-1", rg="rg-1", model="A"):
    return {
        "kind": "failure",
        "t": t,
        "failure_type": failure_type,
        "shelf_id": shelf,
        "raid_group_id": rg,
        "shelf_model": model,
    }


class TestAfr:
    def test_afr_by_type_matches_hand_computation(self):
        # 100 disks over 1 year, 2 disk + 1 protocol failures:
        # AFR(disk) = 100 * 2 / 100 / 1 = 2%, AFR(protocol) = 1%.
        health = health_from_events(
            [
                fleet_event(disks=100, years=1.0),
                failure(1000.0, "disk"),
                failure(2000.0, "disk"),
                failure(3000.0, "protocol"),
            ]
        )
        assert health.afr_by_type() == {"disk": 2.0, "protocol": 1.0}

    def test_afr_requires_a_fleet_event(self):
        health = health_from_events([failure(1.0)])
        assert health.afr_by_type() == {}
        assert health.afr_series() == []

    def test_afr_series_reports_quiet_windows_as_zero(self):
        window = FleetHealth().afr_window_seconds
        health = health_from_events(
            [
                fleet_event(),
                failure(0.5 * window),
                failure(2.5 * window),  # window 1 is silent
            ]
        )
        series = health.afr_series("disk")
        assert [start for start, _afr in series] == [0.0, window, 2.0 * window]
        assert series[1][1] == 0.0
        assert series[0][1] > 0.0

    def test_afr_series_annualizes_per_window(self):
        # 1 failure in one 30-day window over 100 disks:
        # 100 * 1 / 100 / (30/365.25 years) ~ 12.18 %/yr.
        health = health_from_events([fleet_event(disks=100), failure(10.0)])
        ((_start, afr),) = health.afr_series("disk")
        window_years = health.afr_window_seconds / SECONDS_PER_YEAR
        assert afr == pytest.approx(1.0 / window_years)

    def test_type_filter_excludes_other_types(self):
        health = health_from_events(
            [fleet_event(), failure(10.0, "disk"), failure(20.0, "protocol")]
        )
        ((_, afr_disk),) = health.afr_series("disk")
        ((_, afr_all),) = health.afr_series(None)
        assert afr_all == pytest.approx(2.0 * afr_disk)


class TestBurstCheck:
    def test_independentish_stream_is_not_flagged(self):
        # 4 shelves, one failure each, in distinct windows: no doubles.
        events = [fleet_event(shelves=4)] + [
            failure(float(i), shelf="sh-%d" % i) for i in range(4)
        ]
        check = health_from_events(events).burst_check("shelf")
        assert check.count_exactly_two == 0
        assert not check.bursty
        assert check.inflation <= 1.0

    def test_double_failures_inflate_p2(self):
        # 10 shelves over one window; sh-0 fails twice, sh-1..sh-4 once.
        # P(1) = 4/10, P(2) = 1/10, theory = 0.4^2/2 = 0.08 < 0.1.
        events = [fleet_event(shelves=10)]
        events += [failure(1.0, shelf="sh-0"), failure(2.0, shelf="sh-0")]
        events += [failure(3.0 + i, shelf="sh-%d" % (i + 1)) for i in range(4)]
        check = health_from_events(events).burst_check("shelf")
        assert check.n_cells == 10
        assert check.count_exactly_one == 4
        assert check.count_exactly_two == 1
        assert check.p1 == pytest.approx(0.4)
        assert check.p2_empirical == pytest.approx(0.1)
        assert check.p2_theoretical == pytest.approx(0.08)
        assert check.bursty
        assert check.inflation == pytest.approx(0.1 / 0.08)

    def test_silent_units_enter_the_denominator(self):
        # Same failures, bigger fleet: probabilities shrink.
        events = [failure(1.0, shelf="sh-0"), failure(2.0, shelf="sh-0")]
        small = health_from_events([fleet_event(shelves=2)] + events)
        large = health_from_events([fleet_event(shelves=200)] + events)
        assert small.burst_check("shelf").p2_empirical == pytest.approx(0.5)
        assert large.burst_check("shelf").p2_empirical == pytest.approx(1 / 200)

    def test_multi_year_streams_use_per_window_cells(self):
        # One failure per year in the same shelf: two (unit, window)
        # cells with exactly one failure each, not one cell with two.
        year = FleetHealth().correlation_window_seconds
        events = [
            fleet_event(shelves=1, years=2.0),
            failure(0.5 * year, shelf="sh-0"),
            failure(1.5 * year, shelf="sh-0"),
        ]
        check = health_from_events(events).burst_check("shelf")
        assert check.count_exactly_one == 2
        assert check.count_exactly_two == 0
        assert check.n_cells == 2

    def test_raid_group_scope_uses_raid_group_ids(self):
        events = [
            fleet_event(raid_groups=5),
            failure(1.0, rg="rg-0"),
            failure(2.0, rg="rg-0"),
        ]
        check = health_from_events(events).burst_check("raid_group")
        assert check.count_exactly_two == 1

    def test_unknown_scope_is_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            FleetHealth().burst_check("disk")


class TestTopShelfModels:
    def test_ranked_by_count_then_name(self):
        health = health_from_events(
            [
                fleet_event(),
                failure(1.0, model="B"),
                failure(2.0, model="B"),
                failure(3.0, model="A"),
                failure(4.0, model="C"),
            ]
        )
        assert health.top_shelf_models() == [("B", 2), ("A", 1), ("C", 1)]
        assert health.top_shelf_models(k=1) == [("B", 2)]


class TestPublish:
    def test_gauges_cover_afr_burst_and_models(self):
        health = health_from_events(
            [
                fleet_event(shelves=10),
                failure(1.0, shelf="sh-0"),
                failure(2.0, shelf="sh-0"),
                failure(3.0, shelf="sh-1", failure_type="protocol"),
            ]
        )
        registry = MetricsRegistry()
        health.publish(registry)
        assert registry.gauge("health.failures") == 3.0
        assert registry.gauge("health.afr_pct", failure_type="disk") > 0.0
        assert registry.gauge("health.burst_inflation", scope="shelf") > 1.0
        assert registry.gauge("health.shelf_failures", shelf_model="A") == 3.0

    def test_events_run_folds_health_into_metrics_export(self, tmp_path):
        metrics_path = tmp_path / "m.prom"
        obs.configure(metrics=str(metrics_path), events=str(tmp_path / "e.jsonl"))
        try:
            obs.emit("fleet", 0.0, disks=100, shelves=10, raid_groups=10,
                     systems=5, duration_seconds=SECONDS_PER_YEAR)
            obs.emit("failure", 1.0, failure_type="disk", shelf_id="sh-1",
                     raid_group_id="rg-1", shelf_model="A")
            obs.export()
        finally:
            obs.reset()
        text = metrics_path.read_text()
        assert 'repro_health_afr_pct{failure_type="disk"} 1' in text
        assert "repro_health_failures 1" in text


class TestValidation:
    def test_windows_must_be_positive(self):
        with pytest.raises(ValueError):
            FleetHealth(afr_window_seconds=0.0)
        with pytest.raises(ValueError):
            FleetHealth(correlation_window_seconds=-1.0)

    def test_health_from_events_accepts_a_path(self, tmp_path):
        from repro.obs.events import FleetEventLog

        log = FleetEventLog(enabled=True)
        log.emit("fleet", 0.0, disks=10, duration_seconds=SECONDS_PER_YEAR)
        log.emit("failure", 1.0, failure_type="disk")
        path = tmp_path / "e.jsonl"
        log.flush(str(path))
        health = health_from_events(str(path))
        assert health.failures == 1


class TestSimulatedStream:
    def test_simulated_fleet_shows_the_papers_burstiness(self):
        """Finding 11 end-to-end: the event stream of a real simulated
        fleet shows P(2) well above the independence prediction."""
        obs.configure(enable=True)
        try:
            small_engine(scale=0.01).run(seed=7)
            health = health_from_events(obs.fleet_events())
        finally:
            obs.reset()
        assert health.failures > 100
        for scope in BURST_SCOPES:
            check = health.burst_check(scope)
            assert check.bursty, scope
            assert check.inflation > 2.0, scope
        afr = health.afr_by_type()
        assert set(afr) >= {"disk", "physical_interconnect"}
        # Finding 1: disks are NOT the whole story — other failure
        # types contribute a comparable share.
        assert sum(afr.values()) > 1.5 * afr["disk"]
