#!/usr/bin/env python3
"""Failure prediction: the paper's future-work direction, built.

The paper's conclusion proposes designing "storage failure prediction
algorithms based on component errors."  This example trains one on the
simulated substrate:

1. simulate a fleet; the injector emits recovered component errors —
   precursor incidents on ailing components plus background noise on
   healthy disks — alongside the actual subsystem failures,
2. build per-disk trailing-window features (own incidents, shelf
   neighbours' incidents, per-type counts, age),
3. train a from-scratch logistic regression to predict "subsystem
   failure on this disk within 14 days", holding whole systems out for
   evaluation,
4. report AUC, precision/recall, and the top-decile lift a proactive
   replacement policy would see.

Run:
    python examples/failure_prediction.py
"""

from repro.predict import PredictorConfig, train_failure_predictor
from repro.simulate.scenario import run_scenario


def main() -> None:
    print("Simulating a 1:50-scale fleet with component-error emission...")
    sim = run_scenario("paper-default", scale=0.02, seed=6)
    print(
        "  %d subsystem failures, %d recovered component-error lines\n"
        % (sim.injection.n_events(), sim.injection.n_recovered())
    )

    config = PredictorConfig(horizon_days=14.0, grid_days=30.0)
    model, report = train_failure_predictor(sim.injection, config)

    print(report.summary())
    print(
        "\nReading the weights: the strongest signal is trouble on the "
        "disk's *shelf neighbours* —\nexactly what the paper's "
        "correlated-failure findings (shared enclosure, cables, drivers)\n"
        "predict. A per-disk-only predictor (SMART-style) would miss it."
    )

    # What a proactive policy buys: compare top-decile risk density
    # against the base rate.
    print(
        "\nPolicy sketch: watching the riskiest 10%% of disk-months "
        "captures failures at %.1fx the\nbase rate; at threshold %.2f "
        "the predictor flags disks with precision %.2f and recall %.2f."
        % (
            report.lift_top_decile,
            report.threshold,
            report.precision,
            report.recall,
        )
    )


if __name__ == "__main__":
    main()
