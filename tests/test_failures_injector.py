"""Tests for the failure injector: what any injection must satisfy.

These run the batched injector
(:class:`~repro.simulate.vector.engine.VectorFailureInjector`) at small
scale and check event well-formedness, disk replacement, determinism,
the config knobs and the delivered rates.
"""

import pytest

from repro.failures.injector import InjectorConfig
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType, InterconnectCause
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.simulate.vector.engine import VectorFailureInjector
from repro.topology.classes import SystemClass
from repro.units import SCRUB_PERIOD_SECONDS, seconds_to_years


def run_injection(seed=1, scale=0.002, config=None, **spec_overrides):
    spec = FleetSpec.paper_default(scale=scale, **spec_overrides)
    fleet = build_fleet(spec, RandomSource(seed))
    injector = VectorFailureInjector(config)
    return injector.inject(fleet, RandomSource(seed))


@pytest.fixture(scope="module")
def injection():
    return run_injection()


class TestEventWellFormedness:
    def test_events_sorted_by_detection(self, injection):
        times = [event.detect_time for event in injection.events]
        assert times == sorted(times)

    def test_events_inside_window(self, injection):
        end = injection.fleet.duration_seconds
        for event in injection.events:
            assert 0.0 <= event.occur_time <= event.detect_time < end

    def test_detection_lag_bounded_by_scrub_period(self, injection):
        for event in injection.events:
            assert event.detect_time - event.occur_time <= SCRUB_PERIOD_SECONDS

    def test_events_after_system_deployment(self, injection):
        for event in injection.events:
            system = injection.fleet.system(event.system_id)
            assert event.occur_time >= system.deploy_time

    def test_topology_references_valid(self, injection):
        for event in injection.events:
            system = injection.fleet.system(event.system_id)
            slot = system.slot_by_key(event.disk_id.rsplit("#", 1)[0])
            assert slot.raid_group_id == event.raid_group_id
            assert any(d.disk_id == event.disk_id for d in slot.disks)

    def test_event_metadata_matches_system(self, injection):
        for event in injection.events:
            system = injection.fleet.system(event.system_id)
            assert event.system_class == system.system_class.value
            assert event.shelf_model == system.shelf_model
            assert event.dual_path == system.dual_path

    def test_events_attached_to_in_service_disks(self, injection):
        disks = {d.disk_id: d for d in injection.fleet.iter_disks()}
        for event in injection.events:
            disk = disks[event.disk_id]
            assert disk.install_time <= event.occur_time
            if event.failure_type is not FailureType.DISK:
                assert (
                    disk.remove_time is None
                    or event.detect_time < disk.remove_time
                )

    def test_interconnect_events_carry_cause(self, injection):
        for event in injection.events:
            if event.failure_type is FailureType.PHYSICAL_INTERCONNECT:
                assert isinstance(event.cause, InterconnectCause)
            else:
                assert event.cause is None

    def test_all_types_generated(self, injection):
        counts = injection.counts_by_type()
        assert all(counts[ft] > 0 for ft in FAILURE_TYPE_ORDER)


class TestDiskReplacement:
    def test_disk_failure_removes_disk(self, injection):
        disks = {d.disk_id: d for d in injection.fleet.iter_disks()}
        for event in injection.events:
            if event.failure_type is FailureType.DISK:
                disk = disks[event.disk_id]
                assert disk.remove_time == pytest.approx(event.detect_time)
                assert event.replaced_disk

    def test_each_disk_fails_at_most_once(self, injection):
        failed = [
            e.disk_id
            for e in injection.events
            if e.failure_type is FailureType.DISK
        ]
        assert len(failed) == len(set(failed))

    def test_replacements_installed_after_removal(self, injection):
        for system in injection.fleet.systems:
            for slot in system.iter_slots():
                for earlier, later in zip(slot.disks, slot.disks[1:]):
                    assert earlier.remove_time is not None
                    assert later.install_time > earlier.remove_time

    def test_disk_count_ever_grows_with_failures(self, injection):
        disk_failures = injection.counts_by_type()[FailureType.DISK]
        initial = sum(s.slot_count for s in injection.fleet.systems)
        ever = injection.fleet.disk_count_ever
        # Every replaced failure adds a disk unless it happened too
        # close to the window end for the replacement to arrive.
        assert initial < ever <= initial + disk_failures


class TestDeterminism:
    def test_same_seed_same_events(self):
        a = run_injection(seed=4)
        b = run_injection(seed=4)
        assert len(a.events) == len(b.events)
        assert all(
            (x.disk_id, x.detect_time, x.failure_type)
            == (y.disk_id, y.detect_time, y.failure_type)
            for x, y in zip(a.events, b.events)
        )

    def test_different_seed_different_events(self):
        a = run_injection(seed=4)
        b = run_injection(seed=5)
        assert [e.detect_time for e in a.events] != [e.detect_time for e in b.events]


class TestConfigKnobs:
    def test_rate_multiplier_scales_counts(self):
        base = run_injection(seed=6)
        doubled = run_injection(
            seed=6,
            config=InjectorConfig(
                rate_multipliers={FailureType.PROTOCOL: 3.0}
            ),
        )
        assert (
            doubled.counts_by_type()[FailureType.PROTOCOL]
            > 1.8 * base.counts_by_type()[FailureType.PROTOCOL]
        )

    def test_recovered_errors_emitted(self, injection):
        assert injection.recovered_errors
        assert all(error.recovered for error in injection.recovered_errors)

    def test_recovered_errors_can_be_disabled(self):
        result = run_injection(
            seed=6, config=InjectorConfig(emit_recovered_errors=False)
        )
        assert result.recovered_errors == []

    def test_shocks_disabled_still_delivers_rates(self):
        with_shocks = run_injection(seed=7, scale=0.005)
        without = run_injection(
            seed=7,
            scale=0.005,
            config=InjectorConfig(shocks_enabled=False, disk_renewal_shape=1.0),
        )
        a = len(with_shocks.events)
        b = len(without.events)
        # Same expected totals; shock clustering only changes variance.
        assert b == pytest.approx(a, rel=0.25)


class TestDeliveredRates:
    def test_single_class_rate_matches_calibration(self):
        # A near-line-only fleet with no Disk H ambiguity: the total
        # delivered AFR must come out near the calibrated 3.4%.
        spec = FleetSpec.single_class(SystemClass.NEARLINE, n_systems=60)
        fleet = build_fleet(spec, RandomSource(8))
        result = VectorFailureInjector().inject(fleet, RandomSource(8))
        exposure = seconds_to_years(fleet.disk_exposure_seconds())
        afr = 100.0 * len(result.events) / exposure
        assert afr == pytest.approx(3.45, rel=0.25)

    def test_dual_path_reduces_interconnect(self):
        spec = FleetSpec.single_class(SystemClass.HIGH_END, n_systems=120)
        fleet = build_fleet(spec, RandomSource(9))
        result = VectorFailureInjector().inject(fleet, RandomSource(9))
        phys = [
            e for e in result.events
            if e.failure_type is FailureType.PHYSICAL_INTERCONNECT
        ]
        single = sum(1 for e in phys if not e.dual_path)
        dual = sum(1 for e in phys if e.dual_path)
        single_exp = sum(
            seconds_to_years(s.disk_exposure_seconds(fleet.duration_seconds))
            for s in fleet.systems if not s.dual_path
        )
        dual_exp = sum(
            seconds_to_years(s.disk_exposure_seconds(fleet.duration_seconds))
            for s in fleet.systems if s.dual_path
        )
        assert dual / dual_exp < 0.75 * (single / single_exp)
