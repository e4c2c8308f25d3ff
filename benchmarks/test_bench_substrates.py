"""Microbenchmarks of the substrates behind the figures.

Not paper artifacts, but the costs a user of the library actually pays:
fleet simulation, log rendering/parsing, RAID-DP encode/reconstruct.
"""

import numpy as np
import pytest

from repro.autosupport.parser import parse_archive
from repro.autosupport.writer import write_logs
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.raid.raid4 import Raid4Layout
from repro.raid.raiddp import RaidDPLayout
from repro.rng import RandomSource
from repro.simulate.scenario import run_scenario
from repro.simulate.vector.engine import VectorFailureInjector


@pytest.mark.benchmark(group="substrates")
def test_bench_fleet_build(benchmark):
    spec = FleetSpec.paper_default(scale=0.01)
    benchmark(build_fleet, spec, RandomSource(1))


@pytest.mark.benchmark(group="substrates")
def test_bench_failure_injection(benchmark):
    spec = FleetSpec.paper_default(scale=0.01)

    def run():
        fleet = build_fleet(spec, RandomSource(1))
        return VectorFailureInjector().inject(fleet, RandomSource(1))

    result = benchmark(run)
    assert result.events


@pytest.mark.benchmark(group="substrates")
def test_bench_log_write(benchmark):
    sim = run_scenario("paper-default", scale=0.005, seed=2)
    archive = benchmark(write_logs, sim.injection)
    assert archive.total_lines() > 0


@pytest.mark.benchmark(group="substrates")
def test_bench_log_parse(benchmark):
    sim = run_scenario("paper-default", scale=0.005, seed=2, via_logs=True)
    dataset = benchmark(parse_archive, sim.archive)
    assert len(dataset.events) == len(sim.injection.events)


@pytest.mark.benchmark(group="raid")
def test_bench_raid4_encode(benchmark):
    layout = Raid4Layout(n_data=13, block_size=65536)
    data = np.random.default_rng(0).integers(
        0, 256, size=(13, 65536), dtype=np.uint16
    ).astype(np.uint8)
    stripe = benchmark(layout.encode, data)
    assert layout.verify(stripe)


@pytest.mark.benchmark(group="raid")
def test_bench_raiddp_encode(benchmark):
    layout = RaidDPLayout(p=13, block_size=4096)
    data = np.random.default_rng(0).integers(
        0, 256, size=(layout.n_rows, layout.n_data, 4096), dtype=np.uint16
    ).astype(np.uint8)
    stripe = benchmark(layout.encode, data)
    assert layout.verify(stripe)


@pytest.mark.benchmark(group="raid")
def test_bench_raiddp_double_reconstruct(benchmark):
    layout = RaidDPLayout(p=13, block_size=4096)
    data = np.random.default_rng(1).integers(
        0, 256, size=(layout.n_rows, layout.n_data, 4096), dtype=np.uint16
    ).astype(np.uint8)
    stripe = layout.encode(data)
    broken = stripe.copy()
    broken[:, 2] = 0
    broken[:, 7] = 0
    rebuilt = benchmark(layout.reconstruct, broken, [2, 7])
    assert np.array_equal(rebuilt, stripe)
