"""Bench smoke: hazard-backend dispatch cost in the vector engine.

PR 10 routed both engines' sampling through the pluggable backend layer
(`repro.failures.backends`, DESIGN.md §9).  The layer is policy + tiny
object construction — the heavy work (the RNG draws) is unchanged — so
its cost must stay in the noise.  This bench runs one real vector
injection with every dispatch surface instrumented (policy methods,
``hazard()`` construction, and the ``sample_cohort`` wrapper with its
inner draw time subtracted) and asserts the summed dispatch time stays
under 2% of the injection wall time.  Dispatch calls scale with cohort
count, not disk count, so the fraction only *shrinks* toward the
committed ``BENCH_SIMULATE.json`` 1M-disk run; the CI smoke scale is
the conservative case.
"""

from __future__ import annotations

import gc
import time

from repro import envvars
from repro.failures.backends import resolve
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.simulate.vector.engine import VectorFailureInjector

SCALE = envvars.get_float("REPRO_BENCH_SIMULATE_SCALE", 0.4)
SEED = 1
MAX_DISPATCH_FRACTION = 0.02


class _Meter:
    def __init__(self) -> None:
        self.seconds = 0.0


def _timed(meter, func):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        meter.seconds += time.perf_counter() - start
        return result

    return wrapper


class _TimedHazard:
    """Counts sample_cohort wrapper time net of the inner draws."""

    def __init__(self, inner, meter) -> None:
        self._inner = inner
        self._meter = meter

    def sample_interarrivals(self, rng, n):
        return self._inner.sample_interarrivals(rng, n)

    def equilibrium_delay(self, rng, n):
        return self._inner.equilibrium_delay(rng, n)

    def sample_cohort(self, rng, shape):
        start = time.perf_counter()
        inner_start = time.perf_counter()
        result = self._inner.sample_cohort(rng, shape)
        # The inner call includes the actual RNG draw; approximate the
        # wrapper overhead as everything outside this proxy's own call.
        inner = time.perf_counter() - inner_start
        self._meter.seconds += (
            time.perf_counter() - start - inner
        )
        return result

    @property
    def mean(self):
        return self._inner.mean


class _TimedBackend:
    """Times every dispatch surface of a real backend."""

    def __init__(self, inner, meter) -> None:
        self._inner = inner
        self._meter = meter
        self.name = inner.name
        for method in (
            "active_types",
            "uses_shocks",
            "uses_renewal",
            "delivered_rate",
            "cache_token",
        ):
            setattr(self, method, _timed(meter, getattr(inner, method)))

    def hazard(self, *args, **kwargs):
        start = time.perf_counter()
        inner = self._inner.hazard(*args, **kwargs)
        self._meter.seconds += time.perf_counter() - start
        if inner is None:
            return None
        return _TimedHazard(inner, self._meter)


def test_bench_backend_dispatch_overhead(benchmark):
    gc.collect()
    fleet = build_fleet(
        FleetSpec.paper_default(scale=SCALE), RandomSource(SEED)
    )
    meter = _Meter()
    injector = VectorFailureInjector()
    injector.backend = _TimedBackend(resolve("analytic"), meter)

    def run():
        start = time.perf_counter()
        result = injector.inject(fleet, RandomSource(SEED))
        return result, time.perf_counter() - start

    result, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.n_events() > 0
    fraction = meter.seconds / wall
    assert fraction < MAX_DISPATCH_FRACTION, (
        "backend dispatch took %.2f%% of a %.2fs vector injection "
        "(budget: %.0f%%)"
        % (100.0 * fraction, wall, 100.0 * MAX_DISPATCH_FRACTION)
    )
