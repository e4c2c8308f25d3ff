"""Named simulation scenarios for experiments and ablations.

Scenarios bundle a fleet spec and an injector configuration under a
name, so benchmarks, examples, and the CLI share one vocabulary:

- ``paper-default`` — the Table 1 fleet with the calibrated failure
  model; reproduces every figure.
- ``no-shocks`` — shared shock processes disabled; the ablation under
  which burstiness and P(2) inflation collapse to the independence
  model (what RAID's original analysis assumed).
- ``single-shelf-raid`` — RAID groups packed within single shelves
  instead of spanning; the Finding 9 counterfactual.
- ``no-multipath`` — dual-path masking disabled, isolating the Fig. 7
  effect.
- ``operator-error`` — the extended fifth failure type enabled at a
  small constant hazard; the only scenario whose output carries events
  beyond the paper's taxonomy.
- ``quick`` — a small single-seeded smoke-test fleet.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.failures.injector import InjectorConfig
from repro.failures.multipath import MultipathModel
from repro.fleet.spec import FleetSpec
from repro.runconfig import RunConfig
from repro.simulate.engine import SimulationEngine, SimulationResult
from repro.topology.layout import LayoutPolicy
from repro.errors import SpecificationError


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named (spec factory, injector config factory) pair.

    Attributes:
        name: scenario identifier.
        description: one-line summary for ``repro list``.
        make_spec: scale -> fleet spec.
        make_config: () -> injector config.
    """

    name: str
    description: str
    make_spec: Callable[[float], FleetSpec]
    make_config: Callable[[], InjectorConfig]


SCENARIOS: Dict[str, Scenario] = {
    "paper-default": Scenario(
        name="paper-default",
        description="Table 1 fleet, calibrated failure model (all figures)",
        make_spec=lambda scale: FleetSpec.paper_default(scale=scale),
        make_config=InjectorConfig,
    ),
    "no-shocks": Scenario(
        name="no-shocks",
        description="shared shocks disabled: the independence ablation",
        make_spec=lambda scale: FleetSpec.paper_default(scale=scale),
        make_config=lambda: InjectorConfig(
            shocks_enabled=False, disk_renewal_shape=1.0
        ),
    ),
    "single-shelf-raid": Scenario(
        name="single-shelf-raid",
        description="RAID groups within one shelf (Finding 9 counterfactual)",
        make_spec=lambda scale: FleetSpec.paper_default(
            scale=scale, layout_policy=LayoutPolicy.SINGLE_SHELF
        ),
        make_config=InjectorConfig,
    ),
    "no-multipath": Scenario(
        name="no-multipath",
        description="dual-path masking disabled (Fig. 7 null)",
        make_spec=lambda scale: FleetSpec.paper_default(scale=scale),
        make_config=lambda: InjectorConfig(
            multipath=MultipathModel(mask_probability=0.0)
        ),
    ),
    "operator-error": Scenario(
        name="operator-error",
        description="adds the extended operator-error failure type "
        "(0.2%/disk-year)",
        make_spec=lambda scale: FleetSpec.paper_default(scale=scale),
        make_config=lambda: InjectorConfig(
            operator_error_rate_per_disk_year=0.002
        ),
    ),
    "quick": Scenario(
        name="quick",
        description="small smoke-test fleet",
        make_spec=lambda scale: FleetSpec.paper_default(scale=min(scale, 0.002)),
        make_config=InjectorConfig,
    ),
}


def run_scenario(
    name: str,
    scale: float = 0.01,
    seed: int = 0,
    via_logs: bool = False,
    selection=None,
    config: Optional[RunConfig] = None,
) -> SimulationResult:
    """Run a named scenario.

    Args:
        name: one of :data:`SCENARIOS`.
        scale: fleet scale relative to the paper's 39,000 systems.
        seed: root random seed.
        via_logs: route the dataset through the log pipeline.
        selection: optional sub-fleet to build (per class, global system
            indices) — what shard workers pass; see
            :func:`repro.fleet.builder.build_fleet`.
        config: hazard backend (``RunConfig.from_env()`` when None).

    Raises:
        SpecificationError: for unknown scenario names.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise SpecificationError(
            "unknown scenario %r (have: %s)" % (name, ", ".join(sorted(SCENARIOS)))
        ) from None
    engine = SimulationEngine(
        scenario.make_spec(scale),
        injector_config=scenario.make_config(),
        selection=selection,
        config=config,
    )
    return engine.run(seed=seed, via_logs=via_logs)
