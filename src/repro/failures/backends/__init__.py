"""Pluggable hazard backends: one sampling contract for the injector.

A :class:`HazardBackend` answers, for any failure type, two questions
the injectors otherwise hard-code:

1. *how fast* — :meth:`HazardBackend.delivered_rate`, the delivered
   failure rate (events per disk-second) of one fleet configuration;
2. *in what pattern* — :meth:`HazardBackend.hazard`, an inter-arrival
   :class:`Hazard` sampler (or ``None`` for an exact homogeneous
   Poisson process, which the injector implements natively via the
   order-statistics construction).

The batched injector (:mod:`repro.simulate.vector`) dispatches every
hazard draw through the backend object, so a new failure-time model is
written once, as a backend.  Three backends ship:

- :mod:`~repro.failures.backends.analytic` — the calibrated
  exponential/gamma model the paper's figures are built on (the
  default; byte-identical to the pre-backend injector).
- :mod:`~repro.failures.backends.trace` — replay the inter-arrival
  *shape* of a recorded failure trace (JSONL fleet-event log or a
  columnar ``.npz`` event table), rescaled to the calibrated rates.
- :mod:`~repro.failures.backends.fitted` — fit parametric families
  (exponential / gamma / Weibull / piecewise exponential, via
  :mod:`repro.stats.mle`) to an observed trace and re-simulate from
  the best fit, with a KS gate against the source inter-arrivals.

Backends are selected by a spec string — ``"analytic"``,
``"trace:<path>"``, ``"fitted:<path>"`` — carried on
:attr:`repro.runconfig.RunConfig.hazard_backend` (set by the
``--hazard-backend`` flag or ``REPRO_HAZARD_BACKEND``), or on
:attr:`repro.failures.injector.InjectorConfig.hazard_backend`, which
takes precedence.

The *extended* operator-error failure type also enters here: every
backend activates :data:`~repro.failures.types.FailureType.OPERATOR_ERROR`
when ``config.operator_error_rate_per_disk_year`` is positive, feeding a
fifth type through injection, availability, and AFR analyses without
touching the paper's four-way presentation when it is off.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.failures.types import (
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.fleet import calibration
from repro.units import SECONDS_PER_YEAR, afr_percent_to_rate_per_second

#: The spec the injector uses when nothing is configured.
DEFAULT_BACKEND = "analytic"


class Hazard:
    """One inter-arrival-time sampler: the unit of backend dispatch.

    Subclasses implement :meth:`sample_interarrivals` and :attr:`mean`;
    everything else derives from those.
    """

    def sample_interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` inter-arrival gaps (seconds)."""
        raise NotImplementedError

    def sample_cohort(
        self, rng: np.random.Generator, shape: Tuple[int, ...]
    ) -> np.ndarray:
        """Batched draw for the injector: gaps with the given shape.

        One flat draw reshaped, so an ``(m, k)`` cohort request consumes
        exactly the randomness of ``m * k`` scalar gap draws.
        """
        total = int(np.prod(shape))
        return self.sample_interarrivals(rng, total).reshape(shape)

    def equilibrium_delay(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Delays from deployment to each process's first arrival.

        The stationary forward-recurrence time is ``U * L`` with ``L`` a
        *length-biased* gap.  The generic fallback uses plain gaps — a
        slight bias toward early first arrivals that distribution-aware
        subclasses (analytic gamma, empirical) correct exactly.
        """
        gaps = self.sample_interarrivals(rng, n)
        return rng.random(n) * gaps

    @property
    def mean(self) -> float:
        """Mean inter-arrival time in seconds."""
        raise NotImplementedError


class HazardBackend:
    """The per-failure-type hazard policy the injector consults.

    Subclasses set :attr:`name` and implement :meth:`uses_renewal` /
    :meth:`hazard`; the rate bookkeeping below is common to all of them
    so every backend delivers the same calibrated AFRs — backends change
    the *pattern* of failures, not their long-run rates.
    """

    name = "abstract"

    def cache_token(self) -> str:
        """Stable identity for runtime cache keys.

        Data-driven backends extend this with a content hash of their
        source file, so editing a trace invalidates cached results.
        """
        return self.name

    def active_types(self, config) -> Tuple[FailureType, ...]:
        """The failure types this run injects, in stacking order.

        Always the paper's four; extended types join only when their
        hazard is configured, keeping default output four-typed.
        """
        active = FAILURE_TYPE_ORDER
        if config.operator_error_rate_per_disk_year > 0.0:
            active = active + EXTENDED_FAILURE_TYPES
        return active

    def uses_shocks(self, config) -> bool:
        """Whether the shared shock processes run under this backend.

        Data-driven backends return False: a recorded trace already
        embeds whatever burstiness the source fleet had, so layering
        synthetic shocks on top would double-count it.
        """
        return config.shocks_enabled

    def delivered_rate(
        self,
        config,
        system_class,
        failure_type: FailureType,
        disk_model: str,
        shelf_model: str,
    ) -> float:
        """Delivered failure rate (events per disk-second), multipliers
        applied.

        Core types come from the calibrated per-class AFR tables;
        operator error from the config's per-disk-year knob.
        """
        if failure_type in EXTENDED_FAILURE_TYPES:
            return config.rate_multiplier(failure_type) * (
                config.operator_error_rate_per_disk_year / SECONDS_PER_YEAR
            )
        return config.rate_multiplier(
            failure_type
        ) * afr_percent_to_rate_per_second(
            calibration.delivered_afr_percent(
                system_class, failure_type, disk_model, shelf_model
            )
        )

    def uses_renewal(self, config, failure_type: FailureType) -> bool:
        """Whether this type's independent share is a renewal process.

        True routes the type through per-shelf :meth:`hazard` sampling;
        False keeps the exact per-bay Poisson machinery.
        """
        raise NotImplementedError

    def hazard(
        self,
        config,
        failure_type: FailureType,
        mean_seconds: float,
        system_class=None,
    ) -> Optional[Hazard]:
        """The inter-arrival sampler for one process of this type.

        ``mean_seconds`` is the target mean gap (the reciprocal of the
        process rate); backends shape the distribution around it.  Must
        return a :class:`Hazard` whenever :meth:`uses_renewal` is True
        for the type.
        """
        raise NotImplementedError


def parse_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split a backend spec into ``(name, argument)``.

    ``"analytic"`` → ``("analytic", None)``;
    ``"trace:runs/events.jsonl"`` → ``("trace", "runs/events.jsonl")``.
    """
    name, sep, argument = spec.partition(":")
    name = name.strip()
    if not name:
        raise SpecificationError("empty hazard backend spec")
    return name, (argument if sep else None)


def resolve(spec: Optional[str] = None) -> HazardBackend:
    """The backend a spec selects (``None``: the analytic default).

    Instances are cached per spec string and, for data-driven backends,
    the content digest of their file: a trace is read and indexed once
    per process, and again after it is rewritten in place.
    """
    if spec is None:
        spec = DEFAULT_BACKEND
    name, argument = parse_spec(spec)
    digest = None
    if name in ("trace", "fitted") and argument:
        from repro.failures.backends.trace import _file_digest

        digest = _file_digest(argument)
    cached = _CACHE.get(spec)
    if cached is not None and cached[0] == digest:
        return cached[1]
    if name == "analytic":
        if argument is not None:
            raise SpecificationError("the analytic backend takes no argument")
        from repro.failures.backends.analytic import AnalyticBackend

        backend: HazardBackend = AnalyticBackend()
    elif name == "trace":
        if not argument:
            raise SpecificationError("trace backend needs a path: trace:<events>")
        from repro.failures.backends.trace import TraceBackend

        backend = TraceBackend(argument)
    elif name == "fitted":
        if not argument:
            raise SpecificationError("fitted backend needs a path: fitted:<events>")
        from repro.failures.backends.fitted import FittedBackend

        backend = FittedBackend(argument)
    else:
        raise SpecificationError(
            "unknown hazard backend %r (have: analytic, trace:<path>, "
            "fitted:<path>)" % name
        )
    _CACHE[spec] = (digest, backend)
    return backend


#: Per spec, the file digest (None for analytic) and the backend built.
_CACHE: dict = {}


__all__ = [
    "DEFAULT_BACKEND",
    "Hazard",
    "HazardBackend",
    "parse_spec",
    "resolve",
]
