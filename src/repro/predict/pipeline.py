"""End-to-end failure-prediction pipeline over a simulation result."""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.injector import InjectionResult
from repro.predict.evaluate import PredictionReport, evaluate_predictions
from repro.predict.features import FEATURE_NAMES, FeatureExtractor
from repro.predict.model import LogisticModel
from repro.predict.samples import build_samples


@dataclasses.dataclass(frozen=True)
class PredictorConfig:
    """Knobs of the prediction pipeline.

    Attributes:
        horizon_days: look-ahead window for the positive label.
        grid_days: observation-time spacing per disk.
        negative_ratio: kept negatives per positive.
        test_fraction: share of systems held out for evaluation.
        threshold: operating threshold for precision/recall.
        l2: ridge penalty.
        seed: determinism for subsampling.
    """

    horizon_days: float = 14.0
    grid_days: float = 30.0
    negative_ratio: float = 5.0
    test_fraction: float = 0.3
    threshold: float = 0.5
    l2: float = 1e-3
    seed: int = 0


def train_failure_predictor(
    injection: InjectionResult,
    config: PredictorConfig = PredictorConfig(),
) -> Tuple[LogisticModel, PredictionReport]:
    """Train and evaluate a failure predictor on a simulation's output.

    The component-error stream (recovered incidents) provides features;
    the subsystem failures provide labels; whole systems are held out
    for the evaluation so shared-shock context cannot leak.

    Returns:
        ``(model, report)``.

    Raises:
        AnalysisError: when the simulation is too small to yield both
            classes on both split sides.
    """
    if not injection.n_recovered():
        raise AnalysisError(
            "no component errors recorded; run the injector with "
            "emit_recovered_errors=True"
        )
    dataset = FailureDataset.from_injection(injection)
    samples = build_samples(
        dataset,
        horizon_days=config.horizon_days,
        grid_days=config.grid_days,
        negative_ratio=config.negative_ratio,
        seed=config.seed,
    )
    train, test = samples.split_by_system(config.test_fraction)
    if train.positives == 0 or test.positives == 0:
        raise AnalysisError("a split side has no positives; enlarge the fleet")

    extractor = FeatureExtractor(injection.fleet, injection.recovered_batch)
    x_train = extractor.matrix(train.disks, train.times)
    x_test = extractor.matrix(test.disks, test.times)
    model = LogisticModel.fit(
        x_train,
        train.labels,
        l2=config.l2,
        feature_names=FEATURE_NAMES,
    )
    scores = model.predict_proba(x_test)
    report = evaluate_predictions(
        test.labels, scores, model.weight_report(), threshold=config.threshold
    )
    return model, report
