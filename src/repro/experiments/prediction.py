"""Experiment: failure prediction from component errors (§7 future work).

Not a paper artifact — the paper proposes it as future work — but its
findings tell us what the predictor must look like: component errors
precede failures, and shelf-level sharing means *neighbour* trouble is
informative.  The checks assert both.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.predict import PredictorConfig, train_failure_predictor


@register("predict-failures", "Failure prediction from component errors")
def run(context: ExperimentContext) -> ExperimentResult:
    """Train and evaluate the predictor on the paper-default scenario."""
    injection = context.result("paper-default").injection
    _model, report = train_failure_predictor(
        injection, PredictorConfig(horizon_days=14.0)
    )

    # Baseline comparison: Poisson naive Bayes on the same split.
    from repro.core.dataset import FailureDataset
    from repro.predict.evaluate import roc_auc
    from repro.predict.features import FEATURE_NAMES, FeatureExtractor
    from repro.predict.naive_bayes import PoissonNaiveBayes
    from repro.predict.samples import build_samples

    dataset = FailureDataset.from_injection(injection)
    samples = build_samples(dataset, horizon_days=14.0, seed=0)
    train, test = samples.split_by_system(0.3)
    extractor = FeatureExtractor(injection.fleet, injection.recovered_batch)
    bayes = PoissonNaiveBayes.fit(
        extractor.matrix(train.disks, train.times),
        train.labels,
        feature_names=FEATURE_NAMES,
    )
    bayes_auc = roc_auc(
        test.labels, bayes.predict_proba(extractor.matrix(test.disks, test.times))
    )

    checks = {
        "bayes_baseline_above_chance": bayes_auc > 0.6,
        "logistic_competitive_with_bayes": report.auc > bayes_auc - 0.05,
        # Far better than coin-flipping...
        "auc_above_chance": report.auc > 0.70,
        # ... and operationally useful: the top decile is target-rich.
        "top_decile_lift": report.lift_top_decile > 2.0,
        # The paper's correlation findings, visible in the weights:
        # trouble on shelf neighbours predicts this disk's failure.
        "neighbour_signal_positive": report.weights["shelf_incidents_30d"] > 0.0,
        "own_history_signal_positive": report.weights["own_incidents_30d"] > 0.0,
    }
    return ExperimentResult(
        experiment_id="predict-failures",
        title="Failure prediction from component errors",
        text="%s\n  Poisson naive Bayes baseline AUC: %.3f"
        % (report.summary(), bayes_auc),
        data={
            "auc": report.auc,
            "bayes_auc": bayes_auc,
            "precision": report.precision,
            "recall": report.recall,
            "lift_top_decile": report.lift_top_decile,
            "weights": dict(report.weights),
        },
        checks=checks,
    )
