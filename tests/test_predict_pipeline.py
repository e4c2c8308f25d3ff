"""Tests for prediction features, samples, and the end-to-end pipeline."""

import bisect

import numpy as np
import pytest

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.predict.features import FEATURE_NAMES, FeatureExtractor
from repro.predict.pipeline import PredictorConfig, train_failure_predictor
from repro.predict.samples import build_samples
from repro.simulate.vector.emit import RecoveredBatch
from repro.units import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def sim():
    from repro.simulate.scenario import run_scenario

    return run_scenario("paper-default", scale=0.008, seed=2)


@pytest.fixture(scope="module")
def extractor(sim):
    return FeatureExtractor(sim.fleet, sim.injection.recovered_batch)


def _every_disk_at(fleet, time):
    """Every lifetime-table row, observed at ``time``."""
    rows = np.arange(fleet.disk_count_ever)
    return rows, np.full(rows.size, time)


class TestFeatureExtractor:
    def test_vector_shape_and_names(self, extractor):
        assert extractor.matrix([0], [1e7]).shape == (1, len(FEATURE_NAMES))

    def test_windows_nested(self, extractor, sim):
        # 7d counts can never exceed 30d counts, nor 30d exceed 90d.
        x = extractor.matrix(*_every_disk_at(sim.fleet, 0.6 * sim.fleet.duration_seconds))
        assert (x[:, 0] <= x[:, 1]).all() and (x[:, 1] <= x[:, 2]).all()

    def test_shelf_counts_include_own(self, extractor, sim):
        x = extractor.matrix(*_every_disk_at(sim.fleet, 0.6 * sim.fleet.duration_seconds))
        assert (x[:, 3] >= x[:, 1]).all()

    def test_typed_counts_sum_to_window_count(self, extractor, sim):
        x = extractor.matrix(*_every_disk_at(sim.fleet, 0.6 * sim.fleet.duration_seconds))
        assert np.array_equal(x[:, 4:8].sum(axis=1), x[:, 1])

    def test_unknown_disk_gives_zero_features(self, sim):
        # Incidents on a generation the bay never held count toward no
        # disk and no shelf.
        batch = RecoveredBatch(sim.fleet)
        one = np.ones(3, dtype=np.int64)
        batch.add(0 * one, 0 * one, np.array([1e6, 2e6, 3e6]), 0 * one, 99 * one)
        vector = FeatureExtractor(sim.fleet, batch).matrix([0], [3e6])[0]
        assert vector[:8].sum() == 0.0

    def test_counting_is_trailing_only(self, sim, extractor):
        # Features at time t must not see incidents after t.
        _types, times, slots, gens = sim.injection.recovered_batch.incidents()
        middle = len(times) // 2
        row = sim.fleet.bay_rows(slots[middle:middle + 1], gens[middle:middle + 1])
        time = times[middle]
        before = extractor.matrix(row, [time - 1.0])[0, 0]
        after = extractor.matrix(row, [time + 1.0])[0, 0]
        assert after >= before

    def test_counts_match_a_count_incident_by_incident(self, sim, extractor):
        # Windows include both ends, and an incident counts toward its
        # own disk and its shelf.
        fleet = sim.fleet
        types, times, slots, gens = sim.injection.recovered_batch.incidents()
        rows = fleet.bay_rows(slots, gens)
        shelves = fleet.slot_shelf[fleet.disk_slot[rows]]
        picked = rows[rows >= 0][::97][:40]
        at = times[rows >= 0][::97][:40]
        x = extractor.matrix(picked, at)
        for sample, (row, time) in enumerate(zip(picked.tolist(), at.tolist())):
            shelf = fleet.slot_shelf[fleet.disk_slot[row]]
            for column, days in ((0, 7.0), (1, 30.0), (2, 90.0)):
                start = time - days * SECONDS_PER_DAY
                own = (rows == row) & (start <= times) & (times <= time)
                assert x[sample, column] == own.sum()
            start = time - 30.0 * SECONDS_PER_DAY
            window = (start <= times) & (times <= time) & (rows >= 0)
            assert x[sample, 3] == (window & (shelves == shelf)).sum()
            for column, code in zip(range(4, 8), range(4)):
                assert x[sample, column] == (window & (rows == row) & (types == code)).sum()


class TestSamples:
    @pytest.fixture(scope="class")
    def samples(self, sim):
        dataset = FailureDataset.from_injection(sim.injection)
        return build_samples(dataset, seed=1)

    def test_positive_labels_precede_failures(self, sim, samples):
        failure_times = {}
        for event in sim.injection.events:
            failure_times.setdefault(event.disk_id, []).append(event.detect_time)
        horizon = samples.horizon_days * SECONDS_PER_DAY
        disk_ids = sim.fleet.disk_ids(samples.disks)
        for disk_id, time, label in zip(disk_ids, samples.times.tolist(), samples.labels):
            if label == 1.0:
                assert any(
                    time < ft <= time + horizon
                    for ft in failure_times.get(disk_id, [])
                )

    def test_grid_and_labels_match_a_disk_by_disk_loop(self, sim):
        # Every grid point kept: each disk's times step by a running
        # sum from install + grid, labeled by its next failure.
        dataset = FailureDataset.from_injection(sim.injection)
        samples = build_samples(dataset, seed=1, negative_ratio=1e9)
        fleet = sim.fleet
        failures = {}
        for event in dataset.events:
            failures.setdefault(event.disk_id, []).append(event.detect_time)
        grid, horizon = 30.0 * SECONDS_PER_DAY, 14.0 * SECONDS_PER_DAY
        looped = []
        for row in range(0, fleet.disk_count_ever, 7):
            times = sorted(failures.get(fleet.disk_ids([row])[0], []))
            remove = float(fleet.disk_remove[row])
            last = fleet.duration_seconds if remove == np.inf else remove
            time = float(fleet.disk_install[row]) + grid
            while time < last:
                index = bisect.bisect_right(times, time)
                hit = index < len(times) and times[index] <= time + horizon
                looped.append((row, time, 1.0 if hit else 0.0))
                time += grid
        picked = samples.disks % 7 == 0
        built = zip(
            samples.disks[picked].tolist(),
            samples.times[picked].tolist(),
            samples.labels[picked].tolist(),
        )
        assert sorted(built) == sorted(looped)

    def test_negative_subsampling_ratio(self, samples):
        negatives = samples.n - samples.positives
        assert negatives <= 5 * samples.positives + 1

    def test_split_disjoint_systems(self, samples):
        train, test = samples.split_by_system(0.3)
        assert set(train.systems.tolist()).isdisjoint(test.systems.tolist())
        assert train.n + test.n == samples.n

    def test_split_deterministic(self, samples):
        a_train, _ = samples.split_by_system(0.3)
        b_train, _ = samples.split_by_system(0.3)
        assert np.array_equal(a_train.disks, b_train.disks)
        assert np.array_equal(a_train.times, b_train.times)

    def test_validation(self, sim):
        dataset = FailureDataset.from_injection(sim.injection)
        with pytest.raises(AnalysisError):
            build_samples(dataset, horizon_days=0.0)
        empty = FailureDataset(events=[], fleet=sim.fleet)
        with pytest.raises(AnalysisError):
            build_samples(empty)


class TestPipeline:
    def test_trains_and_beats_chance(self, sim):
        model, report = train_failure_predictor(sim.injection)
        assert report.auc > 0.65
        assert report.lift_top_decile > 1.5
        assert report.n_positive > 0

    def test_warning_signal_carries_positive_weight(self, sim):
        model, report = train_failure_predictor(sim.injection)
        assert report.weights["own_incidents_30d"] > 0.0

    def test_deterministic(self, sim):
        _, a = train_failure_predictor(sim.injection)
        _, b = train_failure_predictor(sim.injection)
        assert a.auc == b.auc

    def test_requires_component_errors(self, sim):
        from repro.failures.injector import InjectionResult

        stripped = InjectionResult(
            table=sim.injection.to_table(),
            recovered_errors=RecoveredBatch(sim.injection.fleet),
            fleet=sim.injection.fleet,
        )
        with pytest.raises(AnalysisError):
            train_failure_predictor(stripped)

    def test_report_summary_text(self, sim):
        _, report = train_failure_predictor(sim.injection)
        text = report.summary()
        assert "AUC" in text
        assert "lift" in text
