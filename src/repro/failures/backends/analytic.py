"""The default analytic backend: the calibrated paper failure model.

Exactly the hazard structure the injector used before backends existed:

- **disk** — the non-shock share is a gamma renewal process per shelf
  (shape :data:`repro.fleet.calibration.DISK_RENEWAL_GAMMA_SHAPE`),
  the clustering that makes gamma the best Fig. 9 fit (Finding 8);
- **all other types** — exact homogeneous Poisson processes per bay
  (``hazard() is None`` routes them through the injector's native
  order-statistics construction);
- **shocks** — enabled per ``config.shocks_enabled``, untouched.

The dispatch is draw-for-draw identical to the pre-backend injector:
``tests/goldens/hazard_backend_goldens.json`` pins its outputs under
this backend byte-for-byte across three seeds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.failures.backends import Hazard, HazardBackend
from repro.failures.hazards import GammaInterarrival
from repro.failures.types import FailureType


class AnalyticGammaHazard(Hazard):
    """A gamma renewal hazard with the exact stationary-start draws.

    Wraps :class:`repro.failures.hazards.GammaInterarrival`; the
    equilibrium delay override reproduces the injector's original
    draw sequence — a Gamma(shape+1) length-biased gap, then a uniform
    fraction of it — bit-for-bit.
    """

    def __init__(self, interarrival: GammaInterarrival) -> None:
        self.interarrival = interarrival

    def sample_interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.interarrival.sample(rng, n)

    def equilibrium_delay(self, rng: np.random.Generator, n: int) -> np.ndarray:
        length_biased = rng.gamma(
            self.interarrival.shape + 1.0,
            self.interarrival.scale_seconds,
            size=n,
        )
        return rng.random(n) * length_biased

    @property
    def mean(self) -> float:
        return self.interarrival.mean


class AnalyticBackend(HazardBackend):
    """The calibrated exponential/gamma model (module docstring)."""

    name = "analytic"

    def uses_renewal(self, config, failure_type: FailureType) -> bool:
        return failure_type is FailureType.DISK

    def hazard(
        self,
        config,
        failure_type: FailureType,
        mean_seconds: float,
        system_class=None,
    ) -> Optional[Hazard]:
        if failure_type is FailureType.DISK:
            return AnalyticGammaHazard(
                GammaInterarrival.from_mean(
                    config.disk_renewal_shape, mean_seconds
                )
            )
        return None
