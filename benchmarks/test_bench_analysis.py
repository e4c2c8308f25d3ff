"""Bench: the analysis layer on a ~10x fleet.

The columnar event core (``repro.core.columns``) computes the paper's
hot aggregations as array reductions; this file times them on a fleet
ten times the size of the shared figure-bench fixture (scale 0.5 vs
0.05, ~75,000 events), and ``make bench-seed`` records the timings in
``BENCH_ANALYSIS.json``.  That file's ``*_legacy`` rows are history:
they timed the list-walking implementations the analyses once kept
beside the columnar ones.

``REPRO_BENCH_ANALYSIS_SCALE`` overrides the fleet scale (CI uses a
smaller fleet to stay inside the smoke-job budget).
"""

from __future__ import annotations

import pytest

from repro import envvars
from repro.core.afr import afr_stack
from repro.core.breakdown import afr_by_class
from repro.core.bursts import summarize_bursts
from repro.core.correlation import correlation_by_type
from repro.core.timebetween import gaps_by_scope
from repro.experiments import ExperimentContext

SCALE = envvars.get_float("REPRO_BENCH_ANALYSIS_SCALE", 0.5)
SEED = 1


@pytest.fixture(scope="module")
def big_dataset():
    """One ~10x-scale dataset shared by every analysis bench."""
    context = ExperimentContext(scale=SCALE, seed=SEED)
    return context.dataset("paper-default")


@pytest.mark.benchmark(group="analysis-afr")
def test_bench_afr_stack_columnar(benchmark, big_dataset):
    stack = benchmark(afr_stack, big_dataset)
    assert sum(e.count for e in stack.values()) == len(big_dataset)


@pytest.mark.benchmark(group="analysis-afr")
def test_bench_fig4_afr_by_class_columnar(benchmark, big_dataset):
    rows = benchmark(afr_by_class, big_dataset)
    assert len(rows) >= 2


@pytest.mark.benchmark(group="analysis-gaps")
def test_bench_fig9_gaps_shelf_columnar(benchmark, big_dataset):
    gaps = benchmark(gaps_by_scope, big_dataset, "shelf")
    assert gaps.size > 0


@pytest.mark.benchmark(group="analysis-correlation")
def test_bench_fig10_correlation_columnar(benchmark, big_dataset):
    results = benchmark(correlation_by_type, big_dataset, "shelf")
    assert len(results) == 4


@pytest.mark.benchmark(group="analysis-bursts")
def test_bench_bursts_shelf_columnar(benchmark, big_dataset):
    summary = benchmark(summarize_bursts, big_dataset, "shelf")
    assert summary.n_bursts > 0
