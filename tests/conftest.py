"""Shared fixtures: small simulated fleets reused across test modules.

Simulation is the expensive step, so the fixtures are session-scoped;
tests must treat the shared datasets as read-only (filtering helpers
return new datasets, so this is the natural usage anyway).
"""

from __future__ import annotations

import os

# Pin BLAS thread pools before numpy/scipy load: the suite's linear
# algebra is tiny, and spinning worker threads (especially under the
# runtime's process pool) costs far more than it saves.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from repro.failures.types import FAILURE_TYPE_ORDER
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.simulate.engine import SimulationEngine
from repro.simulate.scenario import run_scenario
from repro.simulate.vector.cohorts import CohortSet
from repro.topology.classes import SYSTEM_CLASS_ORDER


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the runtime's result cache at a per-session temp dir.

    Keeps tests from reading a stale ``~/.cache/repro`` (cache keys
    embed only the package version, not the working-tree state) and
    from leaving artifacts behind.
    """
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield


@pytest.fixture(autouse=True)
def _reset_obs():
    """Reset the process-wide observer after any test that enabled it.

    ``repro.obs`` configuration is sticky (one observer per process);
    without this, a CLI test passing ``--trace`` would leave tracing
    enabled — and pointed at a deleted tmp path — for every later test.
    """
    from repro import obs

    yield
    if (
        obs.OBSERVER.enabled
        or obs.OBSERVER.trace_path
        or obs.OBSERVER.metrics_path
        or obs.OBSERVER.events_path
    ):
        obs.reset()


@pytest.fixture
def rs() -> RandomSource:
    """A fresh deterministic random source."""
    return RandomSource(123)


@pytest.fixture
def tiny_fleet():
    """A small freshly-built (mutable) fleet: ~8 systems, no failures."""
    spec = FleetSpec.paper_default(scale=0.0003)
    return build_fleet(spec, RandomSource(42))


@pytest.fixture(scope="session")
def small_sim():
    """A session-shared paper-default simulation (read-only)."""
    return run_scenario("paper-default", scale=0.005, seed=3)


@pytest.fixture(scope="session")
def small_dataset(small_sim):
    """The session simulation's dataset (read-only)."""
    return small_sim.dataset


@pytest.fixture(scope="session")
def logged_sim():
    """A session-shared simulation routed through the log pipeline."""
    return run_scenario("paper-default", scale=0.002, seed=9, via_logs=True)


@pytest.fixture(scope="session")
def midsize_dataset():
    """A larger session dataset for statistics-hungry tests."""
    return run_scenario("paper-default", scale=0.02, seed=1).dataset


@pytest.fixture(scope="session")
def independent_dataset():
    """The no-shocks (independence ablation) dataset."""
    return run_scenario("no-shocks", scale=0.02, seed=1).dataset


def small_engine(scale: float = 0.002, **spec_overrides) -> SimulationEngine:
    """Helper for tests needing their own (mutable) simulation."""
    return SimulationEngine(FleetSpec.paper_default(scale=scale, **spec_overrides))


def one_shelf_cohort(
    n_bays: int = 14, deploy: float = 0.0, dual_path: bool = False
) -> CohortSet:
    """A one-cohort set for the batched samplers: one system with one
    shelf of ``n_bays`` bays, deployed at ``deploy``."""
    return CohortSet(
        keys=[(SYSTEM_CLASS_ORDER[0], "test-shelf", "test-disk", dual_path, 0)],
        rates=[{}],
        active=FAILURE_TYPE_ORDER,
        systems=np.asarray([0], dtype=np.int64),
        system_start=np.asarray([0, 1], dtype=np.int64),
        shelves=np.asarray([0], dtype=np.int64),
        shelf_start=np.asarray([0, 1], dtype=np.int64),
        shelf_deploy=np.asarray([deploy]),
        shelf_n_slots=np.asarray([n_bays], dtype=np.int64),
        shelf_offset=np.asarray([0], dtype=np.int64),
    )
