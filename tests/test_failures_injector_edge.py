"""Edge-case tests for the failure injector's configuration space.

They run the batched injector
(:class:`~repro.simulate.vector.engine.VectorFailureInjector`).
"""

import numpy as np
import pytest

from repro.failures.injector import InjectorConfig
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.simulate.vector.engine import VectorFailureInjector
from repro.topology.classes import SystemClass


def run(config=None, seed=11, scale=0.002):
    fleet = build_fleet(FleetSpec.paper_default(scale=scale), RandomSource(seed))
    return VectorFailureInjector(config).inject(fleet, RandomSource(seed))


class TestRateMultipliers:
    def test_zeroing_a_type_silences_it(self):
        result = run(
            InjectorConfig(
                rate_multipliers={
                    FailureType.PROTOCOL: 0.0,
                    FailureType.PERFORMANCE: 0.0,
                }
            )
        )
        counts = result.counts_by_type()
        assert counts[FailureType.PROTOCOL] == 0
        assert counts[FailureType.PERFORMANCE] == 0
        assert counts[FailureType.DISK] > 0

    def test_zero_disk_rate_means_no_replacements(self):
        result = run(InjectorConfig(rate_multipliers={FailureType.DISK: 0.0}))
        assert result.counts_by_type()[FailureType.DISK] == 0
        initial = sum(s.slot_count for s in result.fleet.systems)
        assert result.fleet.disk_count_ever == initial

    def test_all_types_zero(self):
        result = run(
            InjectorConfig(
                rate_multipliers={ft: 0.0 for ft in FAILURE_TYPE_ORDER}
            )
        )
        assert result.events == []


class TestDetectionLag:
    def test_tiny_lag(self):
        result = run(InjectorConfig(detection_lag_max_seconds=1e-6))
        for event in result.events:
            assert event.detect_time - event.occur_time <= 1e-6

    def test_huge_lag_still_valid(self):
        result = run(InjectorConfig(detection_lag_max_seconds=30 * 86_400.0))
        end = result.fleet.duration_seconds
        for event in result.events:
            assert event.occur_time <= event.detect_time < end


class TestReplacementDelay:
    def test_enormous_delay_leaves_bays_dark(self):
        result = run(
            InjectorConfig(replacement_delay_mean_seconds=1e12),
            scale=0.004,
        )
        # With effectively-infinite replacement delay no replacement
        # ever arrives inside the window.
        initial = sum(s.slot_count for s in result.fleet.systems)
        assert result.fleet.disk_count_ever == initial

    def test_tiny_delay_replaces_promptly(self):
        result = run(InjectorConfig(replacement_delay_mean_seconds=1.0))
        fleet = result.fleet
        later = np.flatnonzero(fleet.disk_slot[1:] == fleet.disk_slot[:-1]) + 1
        assert (fleet.disk_install[later] - fleet.disk_remove[later - 1] < 60.0).all()


class TestInfantMortality:
    def test_higher_factor_more_disk_failures(self):
        base = run(scale=0.004)
        elevated = run(
            InjectorConfig(infant_mortality_factor=8.0), scale=0.004
        )
        assert (
            elevated.counts_by_type()[FailureType.DISK]
            > base.counts_by_type()[FailureType.DISK]
        )

    def test_infant_failures_land_in_period(self):
        config = InjectorConfig(
            infant_mortality_factor=12.0,
            infant_period_seconds=30 * 86_400.0,
        )
        base = run(scale=0.004)
        elevated = run(config, scale=0.004)
        # The extra failures concentrate inside the infant period.
        def young_count(result, period):
            fleet = result.fleet
            installs = dict(
                zip(
                    fleet.disk_ids(np.arange(fleet.disk_count_ever)),
                    fleet.disk_install.tolist(),
                )
            )
            return sum(
                1
                for e in result.events
                if e.failure_type is FailureType.DISK
                and e.occur_time - installs[e.disk_id] < period
            )

        period = config.infant_period_seconds
        assert young_count(elevated, period) > 2 * young_count(base, period)


class TestSingleClassFleets:
    @pytest.mark.parametrize("system_class", list(SystemClass))
    def test_each_class_runs_alone(self, system_class):
        spec = FleetSpec.single_class(system_class, n_systems=5)
        fleet = build_fleet(spec, RandomSource(2))
        result = VectorFailureInjector().inject(fleet, RandomSource(2))
        assert result.events
        assert all(
            event.system_class == system_class.value for event in result.events
        )
