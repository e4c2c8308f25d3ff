"""Tests for arrival processes.

Poisson and renewal arrivals are drawn by the injector's batched
samplers (:mod:`repro.simulate.vector.sampling`); these tests draw them
on one shelf deployed at ``START`` and check them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpecificationError
from repro.failures.backends import resolve as resolve_backend
from repro.failures.hazards import (
    ExponentialInterarrival,
    GammaInterarrival,
    WeibullInterarrival,
)
from repro.failures.injector import InjectorConfig
from repro.failures.types import FailureType
from repro.simulate.vector.sampling import (
    sample_independent,
    sample_renewal_candidates,
)
from tests.conftest import one_shelf_cohort

START = 500.0


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def poisson_arrivals(rng, rate, end, n_slots=1):
    """Independent per-bay Poisson arrival times on [START, end)."""
    return sample_independent(
        [rng],
        one_shelf_cohort(n_slots, START),
        FailureType.PROTOCOL,
        np.asarray([rate]),
        end,
        InjectorConfig().multipath,
    )


def renewal_arrivals(rng, mean_seconds, end, shape=1.0):
    """One shelf's renewal arrival times on [START, end), one bay."""
    config = InjectorConfig(disk_renewal_shape=shape)
    return sample_renewal_candidates(
        [rng],
        one_shelf_cohort(1, START),
        FailureType.DISK,
        np.asarray([1.0 / mean_seconds]),
        resolve_backend("analytic"),
        config,
        end,
        config.multipath,
    ).time


class TestPoissonArrivals:
    def test_within_bounds(self, rng):
        times = poisson_arrivals(rng, 0.01, 10_000.0).time
        assert times.size > 0
        assert times.min() >= START
        assert times.max() < 10_000.0

    def test_zero_rate(self, rng):
        assert len(poisson_arrivals(rng, 0.0, 1000.0)) == 0

    def test_empty_window(self, rng):
        assert len(poisson_arrivals(rng, 1.0, START)) == 0
        assert len(poisson_arrivals(rng, 1.0, START - 50.0)) == 0

    def test_mean_count_matches_rate(self):
        rng = np.random.default_rng(1)
        out = poisson_arrivals(rng, 0.002, START + 10_000.0, n_slots=300)
        counts = np.bincount(out.slot, minlength=300)
        # Expected 20 arrivals per bay; the sample mean should be close.
        assert np.mean(counts) == pytest.approx(20.0, rel=0.1)

    @given(rate=st.floats(min_value=1e-6, max_value=0.01), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_property_bounds(self, rate, seed):
        rng = np.random.default_rng(seed)
        times = poisson_arrivals(rng, rate, 5_000.0, n_slots=4).time
        assert np.all((times >= START) & (times < 5_000.0))


class TestInterarrivalFamilies:
    def test_exponential_mean(self, rng):
        dist = ExponentialInterarrival(mean_seconds=100.0)
        sample = dist.sample(rng, 20_000)
        assert sample.mean() == pytest.approx(100.0, rel=0.05)
        assert dist.mean == 100.0

    def test_gamma_from_mean(self, rng):
        dist = GammaInterarrival.from_mean(shape=0.7, mean_seconds=500.0)
        assert dist.mean == pytest.approx(500.0)
        sample = dist.sample(rng, 20_000)
        assert sample.mean() == pytest.approx(500.0, rel=0.07)

    def test_weibull_from_mean(self, rng):
        dist = WeibullInterarrival.from_mean(shape=0.8, mean_seconds=500.0)
        assert dist.mean == pytest.approx(500.0)
        sample = dist.sample(rng, 20_000)
        assert sample.mean() == pytest.approx(500.0, rel=0.07)

    def test_gamma_shape_below_one_is_bursty(self, rng):
        # CV > 1 marks clustering relative to exponential.
        dist = GammaInterarrival.from_mean(shape=0.5, mean_seconds=100.0)
        sample = dist.sample(rng, 20_000)
        assert sample.std() / sample.mean() > 1.2

    def test_validation(self):
        with pytest.raises(SpecificationError):
            ExponentialInterarrival(mean_seconds=0.0)
        with pytest.raises(SpecificationError):
            GammaInterarrival(shape=-1.0, scale_seconds=1.0)
        with pytest.raises(SpecificationError):
            WeibullInterarrival(shape=1.0, scale_seconds=0.0)


class TestRenewalArrivals:
    def test_within_bounds_and_sorted(self, rng):
        times = renewal_arrivals(rng, 50.0, 2_000.0)
        assert times.size > 0
        assert np.all((times > START) & (times < 2_000.0))
        assert np.all(np.diff(times) > 0.0)

    def test_empty_window(self, rng):
        assert renewal_arrivals(rng, 50.0, START).size == 0

    def test_exponential_renewal_matches_poisson_rate(self):
        rng = np.random.default_rng(3)
        counts = [
            renewal_arrivals(rng, 100.0, START + 10_000.0).size for _ in range(200)
        ]
        assert np.mean(counts) == pytest.approx(100.0, rel=0.05)

    def test_first_arrival_after_start(self, rng):
        times = renewal_arrivals(rng, 10.0, START + 100.0, shape=0.6)
        assert times.size > 0
        assert np.all(times > START)
