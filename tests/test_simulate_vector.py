"""Tests for the vector (batched) simulation engine.

Two layers of assurance here:

* unit tests for the frame / cohort / sampling substrate;
* exactness tests where the engine *is* deterministic — same seed,
  same table; one cohort replayed in isolation reproduces its rows
  bit-for-bit (content-addressed streams).

The statistical check against the per-unit engine the batched one
replaced lives in tests/test_engine_oracle.py.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import obs
from repro.failures.backends import Hazard, resolve as resolve_backend
from repro.failures.backends.analytic import AnalyticBackend
from repro.failures.injector import InjectorConfig
from repro.failures.types import FAILURE_TYPE_ORDER, FailureType
from repro.fleet.builder import build_fleet
from repro.fleet.partition import cell_of
from repro.fleet.spec import FleetSpec
from repro.obs.sampler import PROGRESS
from repro.rng import RandomSource
from repro.simulate.engine import SimulationEngine
from repro.simulate.vector.cohorts import CohortSet, group_cohorts, system_cells
from repro.simulate.vector.emit import RecoveredBatch
from repro.simulate.vector.engine import (
    VectorFailureInjector,
    build_frame,
    inject_cohorts,
)
from repro.simulate.vector.sampling import (
    CandidateSet,
    sample_independent,
    sample_renewal_candidates,
    sample_shock_candidates,
)
from repro.topology.classes import SYSTEM_CLASS_ORDER
from tests.conftest import one_shelf_cohort


@pytest.fixture(scope="module")
def pristine_fleet():
    """A small fleet that is never injected into (read-only topology)."""
    return build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(21))


@pytest.fixture(scope="module")
def frame(pristine_fleet):
    return build_frame(pristine_fleet)


@pytest.fixture(scope="module")
def cohorts(frame):
    return group_cohorts(frame, InjectorConfig())


def _fresh_fleet(seed: int = 21, scale: float = 0.002):
    return build_fleet(FleetSpec.paper_default(scale=scale), RandomSource(seed))


class TestFleetFrame:
    def test_shapes_consistent(self, frame):
        assert frame.shelf_count == len(frame.shelf_ids)
        assert frame.system_count == len(frame.system_ids)
        assert frame.slot_count == int(frame.shelf_n_slots.sum())
        assert frame.slot_shelf.shape == (frame.slot_count,)
        # Offsets are the exclusive prefix sum of per-shelf bay counts.
        expected = np.concatenate(([0], np.cumsum(frame.shelf_n_slots)))
        assert np.array_equal(frame.shelf_slot_start, expected)

    def test_cached_on_fleet(self, pristine_fleet, frame):
        assert build_frame(pristine_fleet) is frame

    def test_slot_resolution_matches_object_walk(self, frame):
        walked = [
            slot for shelf in frame.iter_shelves() for slot in shelf.slots
        ]
        assert len(walked) == frame.slot_count
        every = np.arange(frame.slot_count, dtype=np.int64)
        assert frame.slot_keys(every) == [s.slot_key for s in walked]
        assert frame.slot_group_ids(every) == [s.raid_group_id for s in walked]

    def test_shelf_sys_points_at_owning_system(self, frame):
        for shelf_index in (0, frame.shelf_count - 1):
            system = frame.systems[int(frame.shelf_system[shelf_index])]
            assert frame.shelf_ids[shelf_index] in [
                shelf.shelf_id for shelf in system.shelves
            ]


class TestCohorts:
    def test_partition_is_exact(self, frame, cohorts):
        shelves = np.concatenate([c.shelves for c in cohorts])
        slots = np.concatenate([c.slots for c in cohorts])
        assert np.array_equal(np.sort(shelves), np.arange(frame.shelf_count))
        assert np.array_equal(np.sort(slots), np.arange(frame.slot_count))

    def test_rates_positive(self, cohorts):
        for cohort in cohorts:
            for failure_type in FAILURE_TYPE_ORDER:
                assert cohort.rates[failure_type] > 0.0

    def test_streams_content_addressed(self, frame, cohorts):
        assert len(cohorts) >= 2  # paper default mixes classes
        # Same cohort key + equal-seed sources => identical draws ...
        a = cohorts[0].stream(RandomSource(5)).random(8)
        b = group_cohorts(frame, InjectorConfig())[0].stream(
            RandomSource(5)
        ).random(8)
        assert np.array_equal(a, b)
        # ... while a different cohort key diverges on the same seed.
        other = group_cohorts(frame, InjectorConfig())[1].stream(
            RandomSource(5)
        ).random(8)
        assert not np.array_equal(a, other)

    def test_stream_cached_per_source(self, cohorts):
        source = RandomSource(6)
        assert cohorts[0].stream(source) is cohorts[0].stream(source)


class TestSampling:
    def test_zero_rate_is_empty(self, cohorts):
        rng = np.random.default_rng(0)
        cohort = cohorts.select([0])
        config = InjectorConfig()
        empty = sample_shock_candidates(
            [rng],
            cohort,
            FailureType.DISK,
            np.zeros(1),
            config.shock_params[FailureType.DISK],
            1.0e6,
            config.multipath,
        )
        assert len(empty) == 0
        backend = resolve_backend("analytic")
        assert (
            len(
                sample_renewal_candidates(
                    [rng],
                    cohort,
                    FailureType.DISK,
                    np.zeros(1),
                    backend,
                    config,
                    1.0e6,
                    config.multipath,
                )
            )
            == 0
        )

    def test_renewal_equilibrium_rate(self):
        # The renewal process starts in equilibrium, so arrivals over the
        # window are rate * bays * window in expectation; the tolerance
        # is several standard deviations wide.
        cohort = one_shelf_cohort(n_bays=14)
        rate, window = 2.0e-5, 1.0e6
        config = InjectorConfig(disk_renewal_shape=1.4)
        out = sample_renewal_candidates(
            [np.random.default_rng(7)],
            cohort,
            FailureType.DISK,
            np.asarray([rate]),
            resolve_backend("analytic"),
            config,
            window,
            config.multipath,
        )
        expected = rate * 14 * window
        assert abs(len(out) - expected) / expected < 0.2
        assert np.all((out.time > 0.0) & (out.time < window))
        assert np.all((out.slot >= 0) & (out.slot < 14))
        assert not out.masked.any()

    def test_independent_interconnect_has_causes(self):
        cohort = one_shelf_cohort(n_bays=10)
        out = sample_independent(
            [np.random.default_rng(3)],
            cohort,
            FailureType.PHYSICAL_INTERCONNECT,
            np.asarray([1.0e-5]),
            1.0e6,
            InjectorConfig().multipath,
        )
        assert len(out) > 0
        assert np.all(out.cause >= 0)  # interconnect faults carry a cause
        assert not out.masked.any()  # single-path cohort masks nothing

    def test_concat_round_trip(self):
        cohort = one_shelf_cohort()
        rng = np.random.default_rng(1)
        config = InjectorConfig(disk_renewal_shape=1.4)
        a = sample_renewal_candidates(
            [rng],
            cohort,
            FailureType.DISK,
            np.asarray([1.0e-5]),
            resolve_backend("analytic"),
            config,
            1.0e6,
            config.multipath,
        )
        merged = CandidateSet.concat([a, CandidateSet.empty()])
        assert len(merged) == len(a)
        assert np.array_equal(merged.time, a.time)


@pytest.fixture(scope="module")
def injected():
    """A fleet plus the vector injection that mutated it."""
    fleet = _fresh_fleet()
    result = VectorFailureInjector().inject(fleet, RandomSource(11))
    return fleet, result


class TestVectorInjector:
    def test_table_sorted_and_causal(self, injected):
        _, result = injected
        table = result.to_table()
        assert len(table) == result.n_events() > 0
        assert np.all(np.diff(table.detect_time) >= 0.0)
        assert np.all(table.detect_time >= table.occur_time)

    def test_events_materialize_well_formed(self, injected):
        _, result = injected
        events = result.events
        assert len(events) == result.n_events()
        for event in events[:20]:
            assert re.match(r".+/\d{2}#\d+$", event.disk_id)
            assert event.disk_id.startswith(event.shelf_id)
            assert event.system_id

    def test_recovered_lazy_count_matches(self, injected):
        _, result = injected
        errors = result.recovered_errors
        assert result.n_recovered() == len(errors) > 0
        times = [error.time for error in errors]
        assert times == sorted(times)

    def test_mutations_written_back(self, injected):
        fleet, result = injected
        table = result.to_table()
        replaced = int(np.count_nonzero(table.replaced_disk))
        assert replaced > 0
        removed = 0
        second_gen = 0
        for system in fleet.systems:
            for shelf in system.shelves:
                for slot in shelf.slots:
                    removed += sum(
                        1 for d in slot.disks if d.remove_time is not None
                    )
                    second_gen += sum(
                        1 for d in slot.disks if d.disk_id.endswith("#1")
                    )
        assert removed == replaced
        assert second_gen > 0

    def test_same_seed_same_table(self):
        tables = []
        for _ in range(2):
            fleet = _fresh_fleet()
            result = VectorFailureInjector().inject(fleet, RandomSource(11))
            tables.append(result.to_table())
        a, b = tables
        assert np.array_equal(a.detect_time, b.detect_time)
        assert np.array_equal(a.type_codes, b.type_codes)
        assert [e.disk_id for e in a.events()] == [
            e.disk_id for e in b.events()
        ]

    def test_cohort_replay_reproduces_its_rows(self, injected):
        # Streams are keyed by cohort content, so one cohort replayed
        # against a fresh equal-seed source must reproduce exactly the
        # rows it contributed to the full run — independence of cohorts
        # and determinism of the stage order, in one check.
        fleet, result = injected
        config = InjectorConfig()
        frame = build_frame(fleet)
        table = result.to_table()
        cohorts = group_cohorts(frame, config)
        for index, cohort in enumerate(cohorts):
            codes = [
                table.system_ids.code(frame.system_ids[i])
                for i in cohort.systems.tolist()
            ]
            mask = np.isin(table.system_codes, codes)
            if np.count_nonzero(mask):
                break
        one = cohorts.select([index])
        block, _ = inject_cohorts(
            one,
            one.streams(RandomSource(11)),
            config,
            resolve_backend("analytic"),
            fleet.duration_seconds,
            RecoveredBatch(frame),
        )
        assert np.array_equal(
            np.sort(table.detect_time[mask]), np.sort(block.detect)
        )
        assert np.array_equal(
            np.sort(table.type_codes[mask]), np.sort(block.type_code)
        )


class _ShortGapHazard(Hazard):
    """Gaps a tenth of the advertised mean, so the renewal sampler's
    first batch is too short and every process takes several rounds."""

    def __init__(self, mean_seconds: float) -> None:
        self.mean_seconds = mean_seconds

    def sample_interarrivals(self, rng, n):
        return rng.exponential(self.mean_seconds / 10.0, size=n)

    @property
    def mean(self) -> float:
        return self.mean_seconds


class _SeveralRoundsBackend(AnalyticBackend):
    def hazard(self, config, failure_type, mean_seconds, system_class=None):
        return _ShortGapHazard(mean_seconds)


class TestStageMajor:
    """Stage-major execution against one-cohort-at-a-time semantics."""

    def test_cells_match_partition(self, frame):
        cells = system_cells(frame.system_ids)
        assert cells.tolist() == [cell_of(i) for i in frame.system_ids]
        assert system_cells(["", "a", "sys-éé"]).tolist() == [
            cell_of(i) for i in ("", "a", "sys-éé")
        ]

    @staticmethod
    def _renewal_one_cohort(rng, cohort, indep_rate, backend, config, window_end):
        """One cohort's renewal draws, one bay-count group after another:
        the per-stream order the stage-major sampler must reproduce."""
        times_parts, shelf_parts = [], []
        for n_bays in np.unique(cohort.shelf_n_slots):
            if n_bays == 0:
                continue
            group = np.flatnonzero(cohort.shelf_n_slots == n_bays)
            hazard = backend.hazard(
                config,
                FailureType.DISK,
                1.0 / (indep_rate * float(n_bays)),
                cohort.system_class,
            )
            current = cohort.shelf_deploy[group] + hazard.equilibrium_delay(
                rng, group.size
            )
            started = current < window_end
            times_parts.append(current[started])
            shelf_parts.append(group[started])
            alive = np.flatnonzero(started)
            if alive.size:
                horizon = (window_end - current[alive].min()) / hazard.mean
                batch = max(8, int(horizon + 4.0 * np.sqrt(horizon) + 4.0))
            while alive.size:
                gaps = hazard.sample_cohort(rng, (alive.size, batch))
                arrivals = current[alive][:, None] + np.cumsum(gaps, axis=1)
                rows, cols = np.nonzero(arrivals < window_end)
                times_parts.append(arrivals[rows, cols])
                shelf_parts.append(group[alive[rows]])
                current[alive] = arrivals[:, -1]
                alive = alive[arrivals[:, -1] < window_end]
        times = np.concatenate(times_parts)
        shelves = np.concatenate(shelf_parts)
        locals_ = rng.integers(
            0, cohort.shelf_n_slots[shelves], size=times.size, dtype=np.int64
        )
        return times, cohort.shelf_offset[shelves] + locals_

    @pytest.mark.parametrize("backend", ["analytic", "several-rounds"])
    def test_renewal_matches_cohort_at_a_time(self, backend):
        # Mixed bay counts within a cohort (two groups, run in turn),
        # unequal batch widths across cohorts (padded rows), processes
        # that outlast their first batch, and an empty shelf.
        bays = np.asarray([14, 24, 14, 12, 12, 0, 14], dtype=np.int64)
        cohorts = CohortSet(
            keys=[
                (SYSTEM_CLASS_ORDER[c], "shelf", "disk", False, c)
                for c in range(3)
            ],
            rates=[{}, {}, {}],
            active=FAILURE_TYPE_ORDER,
            systems=np.arange(3, dtype=np.int64),
            system_start=np.arange(4, dtype=np.int64),
            shelves=np.arange(bays.size, dtype=np.int64),
            shelf_start=np.asarray([0, 3, 5, 7], dtype=np.int64),
            shelf_deploy=np.asarray([0.0, 2.0e5, 4.0e5, 0.0, 1.0e5, 0.0, 3.0e5]),
            shelf_n_slots=bays,
            shelf_offset=np.concatenate(([0], np.cumsum(bays)[:-1])),
        )
        rates = np.asarray([2.0e-5, 9.0e-5, 1.0e-5])
        config = InjectorConfig()
        backend = (
            resolve_backend("analytic")
            if backend == "analytic"
            else _SeveralRoundsBackend()
        )
        window = 1.0e6
        out = sample_renewal_candidates(
            [np.random.default_rng(40 + c) for c in range(3)],
            cohorts,
            FailureType.DISK,
            rates,
            backend,
            config,
            window,
            config.multipath,
        )
        assert np.all(np.diff(out.cohort) >= 0)  # cohort-major
        for c, cohort in enumerate(cohorts):
            rng = np.random.default_rng(40 + c)
            times, slots = self._renewal_one_cohort(
                rng, cohort, rates[c], backend, config, window
            )
            rows = out.cohort == c
            assert times.size > 0
            assert np.array_equal(out.time[rows], times)
            assert np.array_equal(out.slot[rows], slots)

    def test_stage_spans_and_progress_totals(self):
        fleet = _fresh_fleet(seed=5)
        cohorts = group_cohorts(build_frame(fleet), InjectorConfig())
        slot_count = fleet.slot_count
        obs.configure(enable=True)
        PROGRESS.reset()
        PROGRESS.configure()
        try:
            result = VectorFailureInjector().inject(fleet, RandomSource(5))
            spans = [
                event
                for event in obs.OBSERVER.tracer.events()
                if event.get("type") == "span"
            ]
            counts = PROGRESS.counts()
        finally:
            obs.reset()
            PROGRESS.reset()
        (root,) = [s for s in spans if s["name"] == "inject.vector"]
        children = sorted(
            s["name"] for s in spans if s["parent_id"] == root["span_id"]
        )
        assert children == sorted(
            "inject.vector." + stage
            for stage in (
                "group",
                "shocks",
                "renewal",
                "independent",
                "chain",
                "attach",
                "noise",
                "emit",
            )
        )
        assert counts == {
            "cohorts": len(cohorts),
            "disks_advanced": slot_count,
            "events_emitted": result.n_events(),
        }


class TestEngineFacade:
    def test_run_contract(self):
        engine = SimulationEngine(FleetSpec.paper_default(scale=0.002))
        result = engine.run(seed=2)
        assert result.seed == 2
        assert result.dataset.fleet is result.fleet
        assert result.archive is None
        assert len(result.dataset.events) == result.injection.n_events() > 0

    def test_via_logs_round_trip(self):
        engine = SimulationEngine(FleetSpec.paper_default(scale=0.002))
        result = engine.run(seed=9, via_logs=True)
        assert result.archive is not None and result.archive.logs
        assert (
            result.dataset.counts_by_type()
            == result.injection.counts_by_type()
        )
