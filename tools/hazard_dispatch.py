#!/usr/bin/env python
"""Gate: hazard-backend dispatch must cost < 2% of a vector injection.

The injector routes every hazard draw through the pluggable backend
layer (``repro.failures.backends``, DESIGN.md §9).  The layer is policy
plus tiny object construction — the RNG draws themselves are the
backend's — so its cost must stay in the noise.  This tool runs one
injection with every dispatch surface metered (the policy methods,
``hazard()`` construction, and the ``sample_cohort`` wrapper with its
inner draw time subtracted) and exits 1 when the summed dispatch time
is 2% of the injection's wall time or more.

Dispatch calls scale with the cohort count, not the disk count, so the
fraction shrinks as the fleet grows: the small fleet run here is the
conservative case.

Usage::

    python tools/hazard_dispatch.py
"""

from __future__ import annotations

import gc
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.failures.backends import resolve  # noqa: E402
from repro.fleet.builder import build_fleet  # noqa: E402
from repro.fleet.spec import FleetSpec  # noqa: E402
from repro.rng import RandomSource  # noqa: E402
from repro.simulate.vector.engine import VectorFailureInjector  # noqa: E402

SCALE = 0.02
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
        self._meter.seconds += time.perf_counter() - start - inner
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


def main() -> int:
    gc.collect()
    fleet = build_fleet(FleetSpec.paper_default(scale=SCALE), RandomSource(SEED))
    meter = _Meter()
    injector = VectorFailureInjector()
    injector.backend = _TimedBackend(resolve("analytic"), meter)
    start = time.perf_counter()
    result = injector.inject(fleet, RandomSource(SEED))
    wall = time.perf_counter() - start
    if not result.n_events():
        print("ERROR: the injection delivered no events", file=sys.stderr)
        return 1
    fraction = meter.seconds / wall
    print(
        "scale %s: backend dispatch %.2f%% of a %.2fs vector injection "
        "(budget %.0f%%)"
        % (SCALE, 100.0 * fraction, wall, 100.0 * MAX_DISPATCH_FRACTION)
    )
    if fraction >= MAX_DISPATCH_FRACTION:
        print("FAIL: backend dispatch exceeds its budget", file=sys.stderr)
        return 1
    print("PASS: backend dispatch within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
