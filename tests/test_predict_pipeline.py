"""Tests for prediction features, samples, and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.predict.features import FEATURE_NAMES, FeatureExtractor
from repro.predict.pipeline import PredictorConfig, train_failure_predictor
from repro.predict.samples import build_samples
from repro.units import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def sim():
    from repro.simulate.scenario import run_scenario

    return run_scenario("paper-default", scale=0.008, seed=2)


@pytest.fixture(scope="module")
def extractor(sim):
    return FeatureExtractor(sim.fleet, sim.injection.recovered_errors)


class TestFeatureExtractor:
    def test_vector_shape_and_names(self, extractor, sim):
        disk = next(sim.fleet.iter_disks())
        vector = extractor.features(disk.disk_id, 1e7)
        assert vector.shape == (len(FEATURE_NAMES),)

    def test_windows_nested(self, extractor, sim):
        # 7d counts can never exceed 30d counts, nor 30d exceed 90d.
        time = 0.6 * sim.fleet.duration_seconds
        for disk in list(sim.fleet.iter_disks())[:200]:
            seven = extractor.own_incidents(disk.disk_id, time, 7.0)
            thirty = extractor.own_incidents(disk.disk_id, time, 30.0)
            ninety = extractor.own_incidents(disk.disk_id, time, 90.0)
            assert seven <= thirty <= ninety

    def test_shelf_counts_include_own(self, extractor, sim):
        time = 0.6 * sim.fleet.duration_seconds
        for disk in list(sim.fleet.iter_disks())[:200]:
            assert extractor.shelf_incidents(
                disk.disk_id, time, 30.0
            ) >= extractor.own_incidents(disk.disk_id, time, 30.0)

    def test_typed_counts_sum_to_window_count(self, extractor, sim):
        time = 0.6 * sim.fleet.duration_seconds
        for disk in list(sim.fleet.iter_disks())[:200]:
            typed = extractor.typed_incidents(disk.disk_id, time, 30.0)
            assert sum(typed.values()) == extractor.own_incidents(
                disk.disk_id, time, 30.0
            )

    def test_unknown_disk_gives_zero_features(self, extractor):
        vector = extractor.features("no-such-disk", 1e7)
        assert vector[:8].sum() == 0.0

    def test_counting_is_trailing_only(self, sim):
        # Features at time t must not see incidents after t.
        errors = sim.injection.recovered_errors
        extractor = FeatureExtractor(sim.fleet, errors)
        sample = errors[len(errors) // 2]
        before = extractor.own_incidents(
            sample.disk_id, sample.time - 1.0, 7.0
        )
        after = extractor.own_incidents(
            sample.disk_id, sample.time + 1.0, 7.0
        )
        assert after >= before


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
        for (disk_id, time), label in zip(samples.pairs, samples.labels):
            if label == 1.0:
                assert any(
                    time < ft <= time + horizon
                    for ft in failure_times.get(disk_id, [])
                )

    def test_negative_subsampling_ratio(self, samples):
        negatives = samples.n - samples.positives
        assert negatives <= 5 * samples.positives + 1

    def test_split_disjoint_systems(self, samples):
        train, test = samples.split_by_system(0.3)
        assert set(train.system_ids).isdisjoint(test.system_ids)
        assert train.n + test.n == samples.n

    def test_split_deterministic(self, samples):
        a_train, _ = samples.split_by_system(0.3)
        b_train, _ = samples.split_by_system(0.3)
        assert a_train.pairs == b_train.pairs

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
        from repro.simulate.vector.emit import RecoveredBatch

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
