"""Tests for the experiment registry and plumbing.

Experiment *verdicts* live elsewhere: tests/test_paper_shapes.py
asserts each experiment's paper values at scale 0.05, and
tests/test_engine_oracle.py judges the figures' shape checks over 30
seeds.  These tests cover the machinery at a small scale.
"""

import pytest

from repro.errors import SpecificationError
from repro.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_experiment,
)
from repro.experiments.base import register


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(scale=0.008, seed=1)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "fig4a", "fig4b",
            "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
            "fig5-stability", "fig6", "fig7a", "fig7b",
            "fig9a", "fig9b", "fig9-compare", "fig10a", "fig10b",
            "ablate-shocks", "ablate-span", "ablate-raidloss",
            "sweep-multipath", "sweep-burstiness", "predict-failures",
            "availability", "sweep-scrub", "whatif-dualpath", "fig3",
            "replacement-discrepancy", "proactive-policy", "target-ranking",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(SpecificationError):
            run_experiment("fig99")

    def test_double_registration_rejected(self):
        with pytest.raises(SpecificationError):
            register("table1", "again")(lambda ctx: None)

    def test_titles_nonempty(self):
        for title, _runner in EXPERIMENTS.values():
            assert title


class TestContext:
    def test_dataset_cached(self, context):
        a = context.dataset("paper-default")
        b = context.dataset("paper-default")
        assert a is b

    def test_different_scenarios_distinct(self, context):
        assert context.dataset("paper-default") is not context.dataset("no-shocks")


class TestResults:
    def test_table1_runs_small(self, context):
        result = run_experiment("table1", context)
        assert result.experiment_id == "table1"
        assert result.text
        assert result.checks
        assert isinstance(result.passed, bool)
        assert result.data["rows"]

    def test_fig4b_shapes(self, context):
        result = run_experiment("fig4b", context)
        rows = result.data["rows"]
        assert set(rows) == {"Nearline", "Low-end", "Mid-range", "High-end"}
        for stack in rows.values():
            assert stack["total"] == pytest.approx(
                sum(v for k, v in stack.items() if k != "total"), rel=1e-6
            )

    def test_failed_checks_listing(self, context):
        result = run_experiment("table1", context)
        assert set(result.failed_checks()) == {
            name for name, ok in result.checks.items() if not ok
        }

    def test_fig10a_data_fields(self, context):
        result = run_experiment("fig10a", context)
        for payload in result.data.values():
            assert {"p1", "p2_empirical", "p2_theoretical", "inflation"} <= set(
                payload
            )
