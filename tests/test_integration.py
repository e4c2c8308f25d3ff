"""End-to-end integration tests: the full pipeline, cross-checked.

These tests tie the layers together: simulate -> logs -> parse ->
analyze must agree with simulate -> analyze, determinism must hold
across the whole stack, and the examples' entry points must run.
"""

import runpy
import sys

import pytest

from repro.autosupport.parser import parse_archive
from repro.autosupport.writer import write_logs
from repro.core.afr import dataset_afr
from repro.core.correlation import correlation_by_type
from repro.core.timebetween import analyze_gaps
from repro.simulate.scenario import run_scenario


class TestLogPathEquivalence:
    def test_afr_identical_through_logs(self, logged_sim):
        direct = logged_sim.injection
        mined = parse_archive(logged_sim.archive, fleet=logged_sim.fleet)
        from repro.core.dataset import FailureDataset

        direct_afr = dataset_afr(FailureDataset.from_injection(direct)).percent
        mined_afr = dataset_afr(mined).percent
        assert mined_afr == pytest.approx(direct_afr, rel=1e-6)

    def test_burstiness_survives_log_roundtrip(self, logged_sim):
        mined = parse_archive(logged_sim.archive, fleet=logged_sim.fleet)
        from repro.core.dataset import FailureDataset

        direct = FailureDataset.from_injection(logged_sim.injection)
        direct_burst = analyze_gaps(direct, "shelf", None).burst_fraction
        mined_burst = analyze_gaps(mined, "shelf", None).burst_fraction
        # Timestamps round to whole seconds in logs; fractions shift a
        # hair at most.
        assert mined_burst == pytest.approx(direct_burst, abs=0.02)

    def test_correlation_survives_log_roundtrip(self, logged_sim):
        mined = parse_archive(logged_sim.archive, fleet=logged_sim.fleet)
        from repro.core.dataset import FailureDataset

        direct = FailureDataset.from_injection(logged_sim.injection)
        for a, b in zip(
            correlation_by_type(direct, "shelf"),
            correlation_by_type(mined, "shelf"),
        ):
            assert a.count_exactly_one == b.count_exactly_one
            assert a.count_exactly_two == b.count_exactly_two


class TestWholePipelineDeterminism:
    def test_two_runs_identical(self):
        a = run_scenario("paper-default", scale=0.002, seed=13, via_logs=True)
        b = run_scenario("paper-default", scale=0.002, seed=13, via_logs=True)
        assert a.archive.snapshot == b.archive.snapshot
        assert a.archive.logs == b.archive.logs

    def test_rewriting_logs_is_stable(self):
        result = run_scenario("paper-default", scale=0.002, seed=13, via_logs=True)
        rewritten = write_logs(result.injection)
        assert rewritten.logs == result.archive.logs


class TestExamplesRun:
    @pytest.mark.parametrize(
        "example",
        [
            "quickstart",
            "raid_parity_demo",
            "failure_forensics",
            "ops_report",
            "failure_prediction",
            "design_advisor",
            "log_mining",
            "replacement_study",
        ],
    )
    def test_example_scripts_execute(self, example, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["example"])
        runpy.run_path("examples/%s.py" % example, run_name="__main__")
        out = capsys.readouterr().out
        assert len(out) > 100


class TestScalingSanity:
    def test_afr_scale_invariant(self):
        small = run_scenario("paper-default", scale=0.004, seed=21).dataset
        large = run_scenario("paper-default", scale=0.016, seed=21).dataset
        small_afr = dataset_afr(small).percent
        large_afr = dataset_afr(large).percent
        # Rates are per-disk-year: quadrupling the fleet must not move
        # the AFR beyond sampling noise.
        assert small_afr == pytest.approx(large_afr, rel=0.25)
