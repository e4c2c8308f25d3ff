"""Tests for the Poisson naive Bayes baseline."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.predict.evaluate import roc_auc
from repro.predict.naive_bayes import PoissonNaiveBayes


def make_count_data(n=2_000, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(float)
    # Positive class has higher Poisson rates on feature 0, same on 1.
    f0 = rng.poisson(np.where(y == 1, 4.0, 1.0))
    f1 = rng.poisson(2.0, size=n)
    return np.column_stack([f0, f1]).astype(float), y


class TestFit:
    def test_rates_learned(self):
        x, y = make_count_data()
        model = PoissonNaiveBayes.fit(x, y, feature_names=["hot", "noise"])
        assert model.rate_pos[0] > 3.0 * model.rate_neg[0]
        assert model.rate_pos[1] == pytest.approx(model.rate_neg[1], rel=0.15)

    def test_prior_matches_base_rate(self):
        x, y = make_count_data()
        model = PoissonNaiveBayes.fit(x, y)
        assert model.log_prior == pytest.approx(
            np.log(y.sum() / (1 - y).sum()), abs=1e-9
        )

    def test_validation(self):
        with pytest.raises(AnalysisError):
            PoissonNaiveBayes.fit(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(AnalysisError):
            PoissonNaiveBayes.fit(-np.ones((4, 2)), np.array([0, 1, 0, 1]))


class TestPredict:
    def test_discriminates(self):
        x, y = make_count_data()
        model = PoissonNaiveBayes.fit(x, y)
        assert roc_auc(y, model.predict_proba(x)) > 0.8

    def test_probabilities_in_range(self):
        x, y = make_count_data()
        model = PoissonNaiveBayes.fit(x, y)
        probs = model.predict_proba(x)
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_informative_feature_ranked_first(self):
        x, y = make_count_data()
        model = PoissonNaiveBayes.fit(x, y, feature_names=["hot", "noise"])
        assert next(iter(model.feature_report())) == "hot"

    def test_shape_validation(self):
        x, y = make_count_data()
        model = PoissonNaiveBayes.fit(x, y)
        with pytest.raises(AnalysisError):
            model.predict_proba(np.zeros((3, 5)))


class TestAgainstLogistic:
    def test_logistic_at_least_matches_nb_on_fleet_data(self):
        from repro.predict.features import FEATURE_NAMES, FeatureExtractor
        from repro.predict.model import LogisticModel
        from repro.predict.samples import build_samples
        from repro.core.dataset import FailureDataset
        from repro.simulate.scenario import run_scenario

        sim = run_scenario("paper-default", scale=0.008, seed=2)
        dataset = FailureDataset.from_injection(sim.injection)
        samples = build_samples(dataset, seed=1)
        train, test = samples.split_by_system(0.3)
        extractor = FeatureExtractor(sim.fleet, sim.injection.recovered_batch)
        x_train = extractor.matrix(train.disks, train.times)
        x_test = extractor.matrix(test.disks, test.times)

        logistic = LogisticModel.fit(
            x_train, train.labels, feature_names=FEATURE_NAMES
        )
        bayes = PoissonNaiveBayes.fit(
            x_train, train.labels, feature_names=FEATURE_NAMES
        )
        auc_logistic = roc_auc(test.labels, logistic.predict_proba(x_test))
        auc_bayes = roc_auc(test.labels, bayes.predict_proba(x_test))
        # Both clearly above chance; the discriminative model should not
        # lose to the naive baseline by more than noise.
        assert auc_bayes > 0.6
        assert auc_logistic > auc_bayes - 0.05
