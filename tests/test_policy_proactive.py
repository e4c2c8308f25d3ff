"""Tests for the proactive-replacement policy evaluation."""

import dataclasses

import pytest

from repro.errors import AnalysisError
from repro.policy import PolicyConfig, evaluate_proactive_policy


@pytest.fixture(scope="module")
def sim():
    from repro.simulate.scenario import run_scenario

    return run_scenario("paper-default", scale=0.008, seed=6)


@pytest.fixture(scope="module")
def evaluated(sim):
    return evaluate_proactive_policy(
        sim.injection, PolicyConfig(flag_budget_fraction=0.005)
    )


class TestOutcomeAccounting:
    def test_flags_partition(self, evaluated):
        _model, outcome = evaluated
        assert (
            outcome.avoided_disk_failures + outcome.wasted_replacements
            == outcome.flags
        )

    def test_avoided_bounded_by_population(self, evaluated):
        _model, outcome = evaluated
        assert outcome.avoided_disk_failures <= outcome.disk_failures_after_cutoff

    def test_precision_and_shares_in_range(self, evaluated):
        _model, outcome = evaluated
        assert 0.0 <= outcome.precision <= 1.0
        assert 0.0 <= outcome.avoided_share <= 1.0
        assert 0.0 <= outcome.baseline_precision <= 1.0

    def test_summary_text(self, evaluated):
        _model, outcome = evaluated
        text = outcome.summary()
        assert "pulls" in text
        assert "unavoidable" in text


class TestPolicyValue:
    def test_beats_random_baseline(self, evaluated):
        _model, outcome = evaluated
        assert outcome.flags > 0
        assert outcome.lift_over_random > 3.0

    def test_covers_meaningful_share(self, evaluated):
        _model, outcome = evaluated
        assert outcome.avoided_share > 0.05

    def test_unavoidable_failures_dominate_or_exist(self, evaluated):
        # The paper's core claim: non-disk failures are a large share
        # of subsystem failures and cannot be preempted by disk swaps.
        _model, outcome = evaluated
        assert outcome.unavoidable_failures_after_cutoff > 0

    def test_bigger_budget_more_coverage(self, sim):
        _m1, tight = evaluate_proactive_policy(
            sim.injection, PolicyConfig(flag_budget_fraction=0.002)
        )
        _m2, loose = evaluate_proactive_policy(
            sim.injection, PolicyConfig(flag_budget_fraction=0.02)
        )
        assert loose.flags > tight.flags
        assert loose.avoided_disk_failures >= tight.avoided_disk_failures

    def test_deterministic(self, sim):
        config = PolicyConfig(flag_budget_fraction=0.005)
        _a, first = evaluate_proactive_policy(sim.injection, config)
        _b, second = evaluate_proactive_policy(sim.injection, config)
        assert first == second


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(AnalysisError):
            PolicyConfig(cutoff_months=0.0)
        with pytest.raises(AnalysisError):
            PolicyConfig(flag_budget_fraction=0.0)
        with pytest.raises(AnalysisError):
            PolicyConfig(review_days=-1.0)

    def test_cutoff_beyond_window_rejected(self, sim):
        with pytest.raises(AnalysisError):
            evaluate_proactive_policy(
                sim.injection, PolicyConfig(cutoff_months=100.0)
            )

    def test_requires_component_errors(self, sim):
        from repro.failures.injector import InjectionResult
        from repro.simulate.vector.emit import RecoveredBatch

        stripped = InjectionResult(
            table=sim.injection.to_table(),
            recovered_errors=RecoveredBatch(sim.injection.fleet),
            fleet=sim.injection.fleet,
        )
        with pytest.raises(AnalysisError):
            evaluate_proactive_policy(stripped)
