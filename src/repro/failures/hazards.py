"""Inter-arrival families of the failure model's renewal processes.

Three families are provided — exponential (homogeneous Poisson), gamma
renewal, and Weibull renewal — matching the candidate distributions the
paper fits in Fig. 9.  The analytic hazard backend draws from them; all
samplers take an explicit ``numpy.random.Generator`` so callers control
determinism.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import SpecificationError


@dataclasses.dataclass(frozen=True)
class ExponentialInterarrival:
    """Exponential inter-arrival times with the given mean (seconds)."""

    mean_seconds: float

    def __post_init__(self) -> None:
        if self.mean_seconds <= 0.0:
            raise SpecificationError("mean must be positive")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` inter-arrival gaps."""
        return rng.exponential(self.mean_seconds, size=n)

    @property
    def mean(self) -> float:
        """Mean inter-arrival time in seconds."""
        return self.mean_seconds


@dataclasses.dataclass(frozen=True)
class GammaInterarrival:
    """Gamma(shape, scale) inter-arrival times.

    ``shape < 1`` gives clustered ("bursty") renewals — short gaps are
    over-represented relative to an exponential of the same mean.
    """

    shape: float
    scale_seconds: float

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.scale_seconds <= 0.0:
            raise SpecificationError("shape and scale must be positive")

    @classmethod
    def from_mean(cls, shape: float, mean_seconds: float) -> "GammaInterarrival":
        """Construct from a target mean: scale = mean / shape."""
        return cls(shape=shape, scale_seconds=mean_seconds / shape)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` inter-arrival gaps."""
        return rng.gamma(self.shape, self.scale_seconds, size=n)

    @property
    def mean(self) -> float:
        """Mean inter-arrival time in seconds."""
        return self.shape * self.scale_seconds


@dataclasses.dataclass(frozen=True)
class WeibullInterarrival:
    """Weibull(shape, scale) inter-arrival times."""

    shape: float
    scale_seconds: float

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.scale_seconds <= 0.0:
            raise SpecificationError("shape and scale must be positive")

    @classmethod
    def from_mean(cls, shape: float, mean_seconds: float) -> "WeibullInterarrival":
        """Construct from a target mean via the Gamma-function identity."""
        scale = mean_seconds / math.gamma(1.0 + 1.0 / shape)
        return cls(shape=shape, scale_seconds=scale)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` inter-arrival gaps."""
        return self.scale_seconds * rng.weibull(self.shape, size=n)

    @property
    def mean(self) -> float:
        """Mean inter-arrival time in seconds."""
        return self.scale_seconds * math.gamma(1.0 + 1.0 / self.shape)
