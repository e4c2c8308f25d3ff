"""Cross-cutting property-based tests (hypothesis).

These exercise whole-pipeline invariants over randomized inputs: fleet
construction, snapshot round-trips, layout coverage, CSV round-trips,
and exposure accounting — the properties every analysis silently relies
on.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.autosupport.snapshot import parse_snapshot, write_snapshot
from repro.core.correlation import theoretical_p_n
from repro.core.export import events_from_csv, events_to_csv
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec, PAPER_CLASS_SPECS
from repro.rng import RandomSource
from repro.stats.intervals import rate_confidence_interval, wilson_interval
from repro.topology.classes import SystemClass
from repro.topology.components import Shelf
from repro.topology.layout import LayoutPolicy, assign_raid_groups
from repro.topology.raidgroup import RaidType

_slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFleetProperties:
    @given(
        seed=st.integers(0, 10_000),
        n_systems=st.integers(1, 6),
        system_class=st.sampled_from(list(SystemClass)),
    )
    @_slow
    def test_any_small_fleet_is_consistent(self, seed, n_systems, system_class):
        spec = FleetSpec.single_class(system_class, n_systems=n_systems)
        fleet = build_fleet(spec, RandomSource(seed))
        # Every slot populated, every slot in exactly one RAID group of
        # its own system.
        assert (fleet.slot_group >= 0).all()
        owner = np.searchsorted(fleet.system_group_start, fleet.slot_group, side="right") - 1
        assert np.array_equal(owner, fleet.slot_system)
        assert (np.diff(fleet.slot_disk_start) >= 1).all()
        assert np.isinf(fleet.disk_remove[fleet.slot_disk_start[1:] - 1]).all()
        # Exposure never exceeds slots x window.
        max_exposure = (
            sum(s.slot_count for s in fleet.systems) * fleet.duration_seconds
        )
        assert 0.0 < fleet.disk_exposure_seconds() <= max_exposure

    @given(seed=st.integers(0, 10_000))
    @_slow
    def test_snapshot_roundtrip_random_fleets(self, seed):
        spec = FleetSpec.paper_default(scale=0.0004)
        fleet = build_fleet(spec, RandomSource(seed))
        rebuilt = parse_snapshot(write_snapshot(fleet))
        assert write_snapshot(rebuilt) == write_snapshot(fleet)


class TestLayoutProperties:
    @given(
        n_shelves=st.integers(1, 8),
        slots=st.integers(3, 14),
        group_size=st.integers(3, 14),
        span_width=st.integers(1, 5),
        policy=st.sampled_from(list(LayoutPolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_layout_partitions_all_bays(
        self, n_shelves, slots, group_size, span_width, policy
    ):
        shelves = []
        for index in range(n_shelves):
            shelf = Shelf(shelf_id="sh-p-%02d" % index, model="A", system_id="p")
            shelf.add_slots(slots)
            shelves.append(shelf)
        groups = assign_raid_groups(
            "p", shelves, group_size, RaidType.RAID4, policy, span_width
        )
        keys = [key for group in groups for key in group.slot_keys]
        assert len(keys) == n_shelves * slots
        assert len(set(keys)) == len(keys)
        for group in groups:
            assert group.size <= group_size
            if policy is LayoutPolicy.SINGLE_SHELF:
                assert group.span == 1
            else:
                assert group.span <= span_width


class TestCsvProperties:
    @given(fraction=st.floats(min_value=0.1, max_value=1.0))
    @_slow
    def test_csv_roundtrip_subsets(self, fraction, small_dataset):
        from repro.core.dataset import FailureDataset

        keep = int(len(small_dataset.events) * fraction)
        subset = FailureDataset(
            events=list(small_dataset.events[:keep]), fleet=small_dataset.fleet
        )
        rebuilt = events_from_csv(events_to_csv(subset), subset.fleet)
        assert rebuilt.events == subset.events


class TestStatisticsProperties:
    @given(p1=st.floats(min_value=0.0, max_value=1.0), n=st.integers(0, 8))
    def test_theoretical_p_n_decreasing_in_n(self, p1, n):
        if p1 < 1.0:
            assert theoretical_p_n(p1, n + 1) <= theoretical_p_n(p1, n) + 1e-12

    @given(
        count=st.integers(0, 10_000),
        exposure=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_rate_interval_brackets_estimate(self, count, exposure):
        interval = rate_confidence_interval(count, exposure)
        assert interval.low <= interval.center <= interval.high
        assert interval.low >= 0.0

    @given(
        successes=st.integers(0, 500),
        extra=st.integers(0, 500),
    )
    def test_wilson_bounds(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        interval = wilson_interval(successes, trials)
        assert 0.0 <= interval.low <= interval.center <= interval.high <= 1.0

    @given(
        data=st.lists(
            st.floats(min_value=0.01, max_value=1e6), min_size=20, max_size=200
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_exponential_fit_mean_identity(self, data):
        from repro.stats.mle import fit_exponential

        fit = fit_exponential(data)
        assert 1.0 / fit.params["rate"] == pytest.approx(
            float(np.mean(data)), rel=1e-9
        )

    @given(x=st.floats(min_value=0.01, max_value=5.0))
    def test_kolmogorov_sf_is_probability(self, x):
        from repro.stats.ks import kolmogorov_sf

        value = kolmogorov_sf(x)
        assert 0.0 <= value <= 1.0
        assert not math.isnan(value)
