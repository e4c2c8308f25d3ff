"""Bench: batched failure injection and a paper-scale run.

The injector (``repro.simulate.vector``) samples whole cohorts with
NumPy and emits straight into a columnar :class:`EventTable`.  This
file times it on fresh fleets (injection mutates the fleet, so every
round builds its own), and a paper-scale full ``run()`` documents that
a ~1M-disk, 44-month simulation finishes in interactive time.  Both
land in ``BENCH_SIMULATE.json`` via ``make bench-seed``.

``REPRO_BENCH_SIMULATE_SCALE`` overrides the injection-bench fleet
scale (default 0.4, ~700k disks); the full-run bench scales in
proportion, reaching the paper's ~1M-disk fleet (scale 0.6) at the
default.  CI shrinks the knob to smoke-test the engine cheaply.
"""

from __future__ import annotations

import gc

import pytest

from repro import envvars
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.simulate.engine import SimulationEngine
from repro.simulate.vector.engine import VectorFailureInjector

SCALE = envvars.get_float("REPRO_BENCH_SIMULATE_SCALE", 0.4)
#: The full-run bench tracks the paper's fleet: 1.5x the bench scale is
#: scale 0.6 (~1.07M disks) when the knob is at its default.
PAPER_SCALE = 1.5 * SCALE
SEED = 1


@pytest.fixture(scope="module", autouse=True)
def _warm():
    """Pay numpy/import first-call costs outside the timed rounds."""
    fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(SEED))
    VectorFailureInjector().inject(fleet, RandomSource(SEED))


def _fresh_fleet():
    # A collected heap before each round keeps allocator pressure from
    # one round out of the next one's timing.
    gc.collect()
    fleet = build_fleet(
        FleetSpec.paper_default(scale=SCALE), RandomSource(SEED)
    )
    return (fleet,), {}


@pytest.mark.benchmark(group="simulate-inject")
def test_bench_inject_vector(benchmark):
    result = benchmark.pedantic(
        lambda fleet: VectorFailureInjector().inject(
            fleet, RandomSource(SEED)
        ),
        setup=_fresh_fleet,
        rounds=3,
        iterations=1,
    )
    assert result.n_events() > 0


@pytest.mark.benchmark(group="simulate-run")
def test_bench_run_paper_scale_vector(benchmark):
    gc.collect()
    spec = FleetSpec.paper_default(scale=PAPER_SCALE)
    result = benchmark.pedantic(
        lambda: SimulationEngine(spec).run(seed=SEED),
        rounds=1,
        iterations=1,
    )
    assert result.injection.n_events() > 0
    if PAPER_SCALE >= 0.6:  # the paper's ~1M-disk fleet at the default
        assert result.fleet.disk_count_ever >= 1_000_000
