"""The vector engine facade: drop-in batched replacement for
:class:`~repro.simulate.engine.SimulationEngine`.

:class:`VectorFailureInjector` reproduces the legacy injector's failure
model — same rates, same shock/renewal/independent decomposition, same
replacement and masking semantics — but executes it per *cohort* (see
:mod:`repro.simulate.vector.cohorts`) as batched NumPy draws, and
writes results straight into a columnar
:class:`~repro.core.columns.EventTable`.  No
:class:`~repro.failures.events.FailureEvent` or
:class:`~repro.failures.events.ComponentError` object exists on the hot
path; both materialize lazily from
:class:`~repro.failures.injector.InjectionResult` only when legacy
consumers (the log writer, ``.events`` walkers) ask.

The two engines are *statistically* equivalent, not byte-identical:
they consume randomness in different orders, so matched configs agree
on distributions (per-type counts, AFR, burst rates — the differential
test suite pins the tolerances) rather than on individual draws.

``REPRO_VECTOR_ENGINE=1`` routes :func:`make_engine` (and with it
``run_scenario`` and every experiment) through the vector engine; the
legacy engine stays the default and the differential oracle, exactly
like ``REPRO_LEGACY_EVENTS`` for the analysis side.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import envvars, obs
from repro.obs.sampler import PROGRESS
from repro.failures.backends import HazardBackend, resolve as resolve_backend
from repro.failures.injector import (
    InjectionResult,
    InjectorConfig,
    emit_fleet_events,
)
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.fleet.fleet import Fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.simulate.clock import SimulationClock
from repro.simulate.engine import SimulationEngine
from repro.simulate.vector.cohorts import Cohort, group_cohorts
from repro.simulate.vector.emit import (
    EventBlock,
    RecoveredBatch,
    build_event_table,
    record_chains,
)
from repro.simulate.vector.queueing import DiskChain, run_disk_chain
from repro.simulate.vector.sampling import (
    CandidateSet,
    sample_independent,
    sample_renewal_candidates,
    sample_shock_candidates,
)
from repro.units import SECONDS_PER_YEAR

#: Environment variable routing :func:`make_engine` to the vector engine.
VECTOR_ENGINE_ENV = "REPRO_VECTOR_ENGINE"

_TYPE_CODE = {
    failure_type: code for code, failure_type in enumerate(ALL_FAILURE_TYPES)
}


def vector_engine_enabled() -> bool:
    """Whether ``REPRO_VECTOR_ENGINE`` selects the batched engine."""
    return envvars.get_flag(VECTOR_ENGINE_ENV)


def build_frame(fleet: Fleet) -> Fleet:
    """The engine's substrate: the fleet's own arrays.

    Cohorts and emission read the per-bay index arrays (bay -> shelf ->
    system); deriving them here, once per fleet, keeps that cost out of
    the first cohort.
    """
    fleet.slot_system  # noqa: B018 - derives and caches the bay index
    return fleet


class VectorFailureInjector:
    """Cohort-batched failure injector (module docstring).

    Drop-in for :class:`~repro.failures.injector.FailureInjector`: same
    ``inject(fleet, random_source)`` contract, same fleet mutations,
    same observability counters and fleet-event emission.
    """

    #: Publishes per-cohort live-monitor progress itself, so the engine
    #: must not add its own coarse per-run counts on top.
    reports_progress = True

    def __init__(self, config: Optional[InjectorConfig] = None) -> None:
        self.config = config or InjectorConfig()
        self.backend = resolve_backend(self.config.hazard_backend)

    def inject(
        self, fleet: Fleet, random_source: RandomSource
    ) -> InjectionResult:
        config = self.config
        backend = self.backend
        window_end = fleet.duration_seconds
        frame = build_frame(fleet)
        cohorts = group_cohorts(frame, config, backend)
        blocks: List[EventBlock] = []
        chains: List[DiskChain] = []
        recovered = RecoveredBatch(frame)
        with obs.span(
            "inject.vector",
            systems=fleet.system_count,
            cohorts=len(cohorts),
        ):
            for cohort in cohorts:
                block, chain = _inject_cohort(
                    cohort,
                    config,
                    random_source,
                    window_end,
                    recovered,
                    backend,
                )
                blocks.append(block)
                chains.append(chain)
                # Live-monitor progress; one attribute check when no
                # status directory is configured.
                PROGRESS.advance("cohorts")
                PROGRESS.advance("disks_advanced", cohort.n_slots)
                PROGRESS.advance("events_emitted", len(block))
            with obs.span("inject.vector.emit"):
                table = build_event_table(frame, blocks)
                record_chains(fleet, chains)
        result = InjectionResult(
            table=table,
            recovered_errors=recovered if config.emit_recovered_errors else [],
            fleet=fleet,
        )
        if obs.OBSERVER.registry.enabled:
            counts = table.counts_by_type()
            for code, failure_type in enumerate(ALL_FAILURE_TYPES):
                if failure_type not in FAILURE_TYPE_ORDER and not counts[code]:
                    continue  # extended types: counters only when present
                obs.inc(
                    "inject.events",
                    int(counts[code]),
                    failure_type=failure_type.value,
                )
        if obs.OBSERVER.fleet_events.enabled:
            emit_fleet_events(result)
        return result


def _inject_cohort(
    cohort: Cohort,
    config: InjectorConfig,
    source: RandomSource,
    window_end: float,
    recovered: RecoveredBatch,
    backend: HazardBackend,
) -> Tuple[EventBlock, DiskChain]:
    """Simulate one cohort: shocks, renewals, chain, attachment, noise.

    All stages draw from the cohort's single content-addressed stream,
    in this fixed order — the vector analogue of the legacy injector
    consuming one stream per system.  Every hazard draw dispatches
    through the backend, mirroring the legacy injector's dispatch.
    """
    rng = cohort.stream(source)
    active = backend.active_types(config)
    use_shocks = backend.uses_shocks(config)
    shock_candidates = {
        failure_type: CandidateSet.empty() for failure_type in active
    }
    if use_shocks:
        for failure_type in active:
            if failure_type not in config.shock_params:
                continue  # extended types carry no shock share
            shock_candidates[failure_type] = sample_shock_candidates(
                rng,
                cohort,
                failure_type,
                cohort.rates[failure_type],
                config.shock_params[failure_type],
                window_end,
                config.multipath,
            )

    def _indep_rate(failure_type: FailureType) -> float:
        share = (
            config.shock_params[failure_type].rho
            if use_shocks and failure_type in config.shock_params
            else 0.0
        )
        return cohort.rates[failure_type] * (1.0 - share)

    if backend.uses_renewal(config, FailureType.DISK):
        renewals = sample_renewal_candidates(
            rng,
            cohort,
            FailureType.DISK,
            _indep_rate(FailureType.DISK),
            backend,
            config,
            window_end,
            config.multipath,
        )
    else:
        renewals = sample_independent(
            rng,
            cohort,
            FailureType.DISK,
            _indep_rate(FailureType.DISK),
            window_end,
            config.multipath,
        )
    independents = {}
    for failure_type in active:
        if failure_type is FailureType.DISK:
            continue
        if backend.uses_renewal(config, failure_type):
            independents[failure_type] = sample_renewal_candidates(
                rng,
                cohort,
                failure_type,
                _indep_rate(failure_type),
                backend,
                config,
                window_end,
                config.multipath,
            )
        else:
            independents[failure_type] = sample_independent(
                rng,
                cohort,
                failure_type,
                _indep_rate(failure_type),
                window_end,
                config.multipath,
            )

    disk_candidates = CandidateSet.concat(
        [shock_candidates[FailureType.DISK], renewals]
    )
    chain = run_disk_chain(
        rng,
        cohort,
        disk_candidates.slot,
        disk_candidates.time,
        config,
        cohort.rates[FailureType.DISK],
        window_end,
    )

    # Non-disk failures attach to whichever disk occupied the bay.
    parts_slot = [chain.ev_slot]
    parts_gen = [chain.ev_gen]
    parts_occur = [chain.ev_occur]
    parts_detect = [chain.ev_detect]
    parts_type = [np.full(chain.ev_slot.size, _TYPE_CODE[FailureType.DISK], np.int8)]
    parts_cause = [np.full(chain.ev_slot.size, -1, np.int8)]
    parts_replaced = [np.ones(chain.ev_slot.size, dtype=bool)]
    for failure_type in active:
        if failure_type is FailureType.DISK:
            continue
        candidates = CandidateSet.concat(
            [shock_candidates[failure_type], independents[failure_type]]
        )
        if not len(candidates):
            continue
        gen, remove, present = chain.resolve_occupancy(
            candidates.slot, candidates.time
        )
        masked = candidates.masked & present
        if config.emit_recovered_errors and masked.any():
            rows = np.flatnonzero(masked)
            recovered.add(
                failure_type,
                candidates.time[rows],
                candidates.slot[rows],
                gen[rows],
            )
        live = np.flatnonzero(~candidates.masked & present)
        if live.size == 0:
            continue
        detect = candidates.time[live] + rng.uniform(
            0.0, config.detection_lag_max_seconds, size=live.size
        )
        valid = (detect < window_end) & (detect < remove[live])
        rows = live[valid]
        if rows.size == 0:
            continue
        parts_slot.append(candidates.slot[rows])
        parts_gen.append(gen[rows])
        parts_occur.append(candidates.time[rows])
        parts_detect.append(detect[valid])
        parts_type.append(
            np.full(rows.size, _TYPE_CODE[failure_type], dtype=np.int8)
        )
        parts_cause.append(candidates.cause[rows])
        parts_replaced.append(np.zeros(rows.size, dtype=bool))

    block = EventBlock(
        cohort=cohort,
        slot=np.concatenate(parts_slot),
        gen=np.concatenate(parts_gen),
        occur=np.concatenate(parts_occur),
        detect=np.concatenate(parts_detect),
        type_code=np.concatenate(parts_type),
        cause_code=np.concatenate(parts_cause),
        replaced=np.concatenate(parts_replaced),
    )
    # Detection order within the cohort, so downstream draw order is
    # content-determined rather than assembly-order-determined.
    order = np.argsort(block.detect, kind="stable")
    block = EventBlock(
        cohort=cohort,
        slot=block.slot[order],
        gen=block.gen[order],
        occur=block.occur[order],
        detect=block.detect[order],
        type_code=block.type_code[order],
        cause_code=block.cause_code[order],
        replaced=block.replaced[order],
    )

    if config.emit_recovered_errors:
        _sample_noise(
            rng,
            cohort,
            config,
            chain,
            block,
            window_end,
            recovered,
        )
    return block, chain


def _sample_noise(
    rng: np.random.Generator,
    cohort: Cohort,
    config: InjectorConfig,
    chain: DiskChain,
    block: EventBlock,
    window_end: float,
    recovered: RecoveredBatch,
) -> None:
    """Recovered retry noise: precursor warnings plus background errors."""
    # Precursors: each delivered failure radiates Poisson-many recovered
    # incidents on its component in the days before it occurs.
    n_events = len(block)
    if n_events:
        counts = rng.poisson(
            config.recovered_errors_per_failure, size=n_events
        )
        total = int(counts.sum())
        if total:
            event_of = np.repeat(np.arange(n_events), counts)
            leads = rng.exponential(
                config.warning_lead_mean_seconds, size=total
            )
            times = block.occur[event_of] - leads
            deploy = cohort.slot_deploy[
                np.searchsorted(cohort.slots, block.slot[event_of])
            ]
            keep = times > deploy  # precursors cannot predate deployment
            if keep.any():
                rows = np.flatnonzero(keep)
                recovered.add_mixed(
                    block.type_code[event_of[rows]].astype(np.int64),
                    times[rows],
                    block.slot[event_of[rows]],
                    block.gen[event_of[rows]],
                )

    # Background: every disk ever in service logs rare transient errors.
    background_rate = (
        config.background_error_rate_per_disk_year / SECONDS_PER_YEAR
    )
    if background_rate <= 0.0 or cohort.n_slots == 0:
        return
    disk_slot = [cohort.slots]
    disk_gen = [np.zeros(cohort.n_slots, dtype=np.int64)]
    disk_install = [cohort.slot_deploy]
    end0 = np.full(cohort.n_slots, window_end)
    if chain.slots.size:
        in_cohort = np.searchsorted(cohort.slots, chain.slots)
        end0[in_cohort] = np.minimum(chain.rem[:, 0], window_end)
        for generation in range(1, chain.inst.shape[1]):
            live = np.flatnonzero(~np.isnan(chain.inst[:, generation]))
            if live.size == 0:
                break
            disk_slot.append(chain.slots[live])
            disk_gen.append(np.full(live.size, generation, dtype=np.int64))
            disk_install.append(chain.inst[live, generation])
            end0 = np.concatenate(
                (end0, np.minimum(chain.rem[live, generation], window_end))
            )
    slots = np.concatenate(disk_slot)
    gens = np.concatenate(disk_gen)
    installs = np.concatenate(disk_install)
    spans = end0 - installs
    usable = spans > 0.0
    slots, gens, installs, spans = (
        slots[usable],
        gens[usable],
        installs[usable],
        spans[usable],
    )
    counts = rng.poisson(background_rate * spans)
    total = int(counts.sum())
    if total == 0:
        return
    disk_of = np.repeat(np.arange(slots.size), counts)
    times = installs[disk_of] + rng.random(total) * spans[disk_of]
    type_codes = rng.integers(
        0, len(FAILURE_TYPE_ORDER), size=total, dtype=np.int64
    )
    recovered.add_mixed(type_codes, times, slots[disk_of], gens[disk_of])


class VectorSimulationEngine(SimulationEngine):
    """A :class:`SimulationEngine` wired to the batched injector.

    Identical ``run(seed, via_logs)`` contract and result shape; only
    the injection step differs.
    """

    def __init__(
        self,
        spec: FleetSpec,
        injector_config: Optional[InjectorConfig] = None,
        clock: SimulationClock = SimulationClock(),
        selection=None,
    ) -> None:
        super().__init__(spec, injector_config, clock, selection=selection)
        self.injector = VectorFailureInjector(injector_config)


def make_engine(
    spec: FleetSpec,
    injector_config: Optional[InjectorConfig] = None,
    clock: Optional[SimulationClock] = None,
    selection=None,
) -> SimulationEngine:
    """The engine the environment selects: vector when
    ``REPRO_VECTOR_ENGINE`` is set, legacy otherwise."""
    engine_cls = (
        VectorSimulationEngine if vector_engine_enabled() else SimulationEngine
    )
    return engine_cls(
        spec,
        injector_config=injector_config,
        clock=clock if clock is not None else SimulationClock(),
        selection=selection,
    )
