"""RunConfig: the run configuration every simulated number depends on.

One knob chooses *how* a simulation runs: the hazard backend (see
:mod:`repro.failures.backends`).  It changes results, so it belongs in
every cache key and must reach every process that simulates.

A :class:`RunConfig` is resolved once, at the CLI or API boundary —
:meth:`RunConfig.from_env`: explicit values, then ``REPRO_*``, then
the defaults — and then carried explicitly: in
:class:`~repro.runtime.jobs.Job` payloads, in shard payloads, on
:class:`~repro.experiments.ExperimentContext`, and as the ``config=``
keyword of ``run_scenario`` and
:class:`~repro.simulate.engine.SimulationEngine`.  This module is the
only reader of ``REPRO_HAZARD_BACKEND``; simulation code reads the
config, never the environment (reprolint RPL007).

:meth:`RunConfig.canonical` renders the config's cache-key terms.
``Job.canonical()`` and ``shard_canonical()`` both embed it, so the two
keys cannot diverge and a new field enters both at once.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro import envvars
from repro.failures.backends import DEFAULT_BACKEND, resolve

#: Environment variable naming the default hazard backend spec.
HAZARD_BACKEND_ENV = "REPRO_HAZARD_BACKEND"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How a simulation runs (module docstring).

    Attributes:
        hazard_backend: hazard backend spec — ``"analytic"``,
            ``"trace:<events>"`` or ``"fitted:<events>"``.
    """

    hazard_backend: str = DEFAULT_BACKEND

    @classmethod
    def from_env(cls, **explicit: Optional[str]) -> "RunConfig":
        """Resolve a config: ``explicit`` values, then ``REPRO_*``, then
        the defaults.

        Keywords name fields; ``None`` means "not given", so a CLI can
        pass its optional flags straight through.
        """
        values = {
            "hazard_backend": envvars.get(HAZARD_BACKEND_ENV) or DEFAULT_BACKEND,
        }
        values.update(
            (name, value) for name, value in explicit.items() if value is not None
        )
        return cls(**values)

    def canonical(self) -> str:
        """The cache-key terms: one per non-default field.

        A field renders only when it differs from its default, so the
        defaults render as ``""`` and default keys stay unchanged when a
        field is added.  The hazard backend renders as its
        ``cache_token()``, which digests a trace or fitted backend's
        input file as it reads now.
        """
        terms = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value == field.default:
                continue
            if field.name == "hazard_backend":
                token = resolve(self.hazard_backend).cache_token()
                terms.append("hazard=%s" % token)
            else:
                terms.append("%s=%s" % (field.name, value))
        return " ".join(terms)


__all__ = [
    "HAZARD_BACKEND_ENV",
    "RunConfig",
]
