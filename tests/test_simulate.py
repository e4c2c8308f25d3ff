"""Tests for the simulation clock, engine, and scenarios."""

import datetime

import numpy as np
import pytest

from repro.errors import LogFormatError, SpecificationError
from repro.fleet.spec import FleetSpec
from repro.simulate.clock import SimulationClock
from repro.simulate.engine import SimulationEngine
from repro.simulate.scenario import SCENARIOS, run_scenario


class TestClock:
    def test_epoch_is_january_2004(self):
        clock = SimulationClock()
        assert clock.to_datetime(0.0) == datetime.datetime(2004, 1, 1)

    def test_forward_and_back(self):
        clock = SimulationClock()
        when = clock.to_datetime(123_456.0)
        assert clock.to_sim_seconds(when) == pytest.approx(123_456.0)

    def test_format_parse_roundtrip(self):
        clock = SimulationClock()
        text = clock.format(86_400.0 * 400 + 3_723.0)
        assert clock.parse(text) == pytest.approx(86_400.0 * 400 + 3_723.0)

    def test_format_has_year(self):
        clock = SimulationClock()
        assert "2004" in clock.format(0.0)
        assert "2005" in clock.format(400 * 86_400.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(LogFormatError):
            SimulationClock().parse("yesterday at noon")

    def test_custom_epoch(self):
        clock = SimulationClock(epoch=datetime.datetime(2020, 6, 1))
        assert "2020" in clock.format(0.0)


class TestEngine:
    def test_run_produces_consistent_result(self):
        engine = SimulationEngine(FleetSpec.paper_default(scale=0.001))
        result = engine.run(seed=2)
        assert result.seed == 2
        assert result.dataset.fleet is result.fleet
        assert result.archive is None
        assert len(result.dataset.events) == len(result.injection.events)

    def test_run_deterministic(self):
        engine = SimulationEngine(FleetSpec.paper_default(scale=0.001))
        a = engine.run(seed=3)
        b = engine.run(seed=3)
        assert [e.detect_time for e in a.dataset.events] == [
            e.detect_time for e in b.dataset.events
        ]

    def test_via_logs_attaches_archive(self, logged_sim):
        assert logged_sim.archive is not None
        assert logged_sim.archive.logs

    def test_via_logs_dataset_counts_match_injection(self, logged_sim):
        assert (
            logged_sim.dataset.counts_by_type()
            == logged_sim.injection.counts_by_type()
        )

    def test_scale_0_6_is_the_paper_scale_fleet(self):
        # The ~1M-disk, 44-month run every paper-scale figure names.
        result = SimulationEngine(FleetSpec.paper_default(scale=0.6)).run(seed=1)
        assert result.injection.n_events() > 0
        assert result.fleet.disk_count_ever >= 1_000_000


class TestScenarios:
    def test_known_scenarios(self):
        assert {
            "paper-default",
            "no-shocks",
            "single-shelf-raid",
            "no-multipath",
            "quick",
        } <= set(SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(SpecificationError):
            run_scenario("warp-drive")

    def test_quick_caps_scale(self):
        result = run_scenario("quick", scale=0.5, seed=1)
        assert result.fleet.system_count < 200

    def test_single_shelf_scenario_layout(self):
        fleet = run_scenario("single-shelf-raid", scale=0.001, seed=1).fleet
        # Each RAID group's bays sit on one shelf.
        grouped = fleet.slot_group >= 0
        first_shelf = np.full(fleet.raid_group_count, -1)
        first_shelf[fleet.slot_group[grouped]] = fleet.slot_shelf[grouped]
        assert np.array_equal(first_shelf[fleet.slot_group[grouped]], fleet.slot_shelf[grouped])

    def test_no_multipath_scenario_masks_nothing(self):
        default = run_scenario("paper-default", scale=0.005, seed=4)
        unmasked = run_scenario("no-multipath", scale=0.005, seed=4)
        from repro.failures.types import FailureType

        d = default.dataset.counts_by_type()[FailureType.PHYSICAL_INTERCONNECT]
        u = unmasked.dataset.counts_by_type()[FailureType.PHYSICAL_INTERCONNECT]
        assert u > d  # masking suppressed events in the default run
