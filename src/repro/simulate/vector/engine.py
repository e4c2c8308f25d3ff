"""The batched failure injector behind
:class:`~repro.simulate.engine.SimulationEngine`.

:class:`VectorFailureInjector` executes the failure model — shelf
shocks, disk renewals, independent arrivals, the replacement chain and
multipath masking — over *cohorts* (see
:mod:`repro.simulate.vector.cohorts`) as batched NumPy draws, and
writes results straight into a columnar
:class:`~repro.core.columns.EventTable`.  No
:class:`~repro.failures.events.FailureEvent` or
:class:`~repro.failures.events.ComponentError` object exists on the hot
path; both materialize lazily from
:class:`~repro.failures.injector.InjectionResult` only when consumers
(the log writer, ``.events`` walkers) ask.

Execution is stage-major (:func:`inject_cohorts`): each stage — shocks
per type, disk renewals, independents per type, the replacement chain,
attachment of non-disk failures to disks, then precursor and background
noise — runs once over every cohort, on fleet-wide arrays keyed by
cohort.  Only the draws loop over cohorts, and every cohort's stream is
consumed in the same order, with the same sizes, as a cohort-at-a-time
run: stage-major and cohort-at-a-time execution give byte-identical
output.

tests/test_engine_oracle.py holds the injector's figure statistics and
shape-check pass rates to those of the per-unit injector it replaced
(tests/goldens/engine_oracle.json).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
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
from repro.fleet.fleet import Fleet, offsets
from repro.rng import RandomSource
from repro.runconfig import RunConfig
from repro.simulate.vector.cohorts import (
    CohortSet,
    Streams,
    group_cohorts,
    joined,
    nonempty,
    segment_poisson,
    segment_sums,
)
from repro.simulate.vector.emit import (
    DeliveredEvents,
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

_TYPE_CODE = {
    failure_type: code for code, failure_type in enumerate(ALL_FAILURE_TYPES)
}


def vector_engine_enabled() -> bool:
    """Whether simulations run on the batched engine: always, since it
    is the only one."""
    return True


def build_frame(fleet: Fleet) -> Fleet:
    """The engine's substrate: the fleet's own arrays.

    Cohorts and emission read the per-bay index arrays (bay -> shelf ->
    system); deriving them here, once per fleet, keeps that cost out of
    the first stage.
    """
    fleet.slot_system  # noqa: B018 - derives and caches the bay index
    return fleet


class VectorFailureInjector:
    """Cohort-batched failure injector (module docstring).

    ``inject(fleet, random_source)`` simulates the fleet's observation
    window, writes disk removals and replacements into the fleet's
    lifetime table, and publishes observability counters, live-monitor
    progress and fleet events.
    """

    def __init__(
        self,
        config: Optional[InjectorConfig] = None,
        run_config: RunConfig = RunConfig(),
    ) -> None:
        """``run_config`` names the hazard backend, resolved here once."""
        self.config = config or InjectorConfig()
        self.backend = resolve_backend(run_config.hazard_backend)

    def inject(
        self, fleet: Fleet, random_source: RandomSource
    ) -> InjectionResult:
        config = self.config
        frame = build_frame(fleet)
        recovered = RecoveredBatch(frame)
        with obs.span("inject.vector", systems=fleet.system_count):
            with obs.span("inject.vector.group"):
                cohorts = group_cohorts(frame, config, self.backend)
                streams = cohorts.streams(random_source)
            events, chain = inject_cohorts(
                cohorts,
                streams,
                config,
                self.backend,
                fleet.duration_seconds,
                recovered,
            )
            with obs.span("inject.vector.emit", cohorts=len(cohorts)):
                table = build_event_table(frame, cohorts, events)
                record_chains(fleet, chain)
        # Live-monitor progress; one attribute check when no status
        # directory is configured.
        PROGRESS.advance("cohorts", len(cohorts))
        PROGRESS.advance("disks_advanced", int(cohorts.slots.size))
        PROGRESS.advance("events_emitted", len(events))
        result = InjectionResult(
            table=table,
            recovered_errors=(
                recovered if config.emit_recovered_errors else RecoveredBatch(frame)
            ),
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


def inject_cohorts(
    cohorts: CohortSet,
    streams: Streams,
    config: InjectorConfig,
    backend: HazardBackend,
    window_end: float,
    recovered: RecoveredBatch,
) -> Tuple[DeliveredEvents, DiskChain]:
    """Simulate every cohort: shocks, renewals, chain, attachment, noise.

    Stage-major: each stage runs once over all cohorts, and cohort
    ``c`` draws from ``streams[c]`` in this fixed stage order.  Every
    hazard draw dispatches through the backend, whose policy is asked
    once per run.  Returns the delivered failures (cohort-major, each
    cohort's in detection order) and the disk chain; recovered
    incidents go to ``recovered``.
    """
    active = cohorts.active
    use_shocks = backend.uses_shocks(config)
    renewal = {
        failure_type: backend.uses_renewal(config, failure_type)
        for failure_type in active
    }
    rates = {failure_type: cohorts.rate(failure_type) for failure_type in active}
    multipath = config.multipath

    def independent(failure_type: FailureType) -> CandidateSet:
        share = (
            config.shock_params[failure_type].rho
            if use_shocks and failure_type in config.shock_params
            else 0.0
        )
        indep_rates = rates[failure_type] * (1.0 - share)
        if renewal[failure_type]:
            return sample_renewal_candidates(
                streams,
                cohorts,
                failure_type,
                indep_rates,
                backend,
                config,
                window_end,
                multipath,
            )
        return sample_independent(
            streams, cohorts, failure_type, indep_rates, window_end, multipath
        )

    with obs.span("inject.vector.shocks"):
        shocks = {failure_type: CandidateSet.empty() for failure_type in active}
        if use_shocks:
            for failure_type in active:
                if failure_type not in config.shock_params:
                    continue  # extended types carry no shock share
                shocks[failure_type] = sample_shock_candidates(
                    streams,
                    cohorts,
                    failure_type,
                    rates[failure_type],
                    config.shock_params[failure_type],
                    window_end,
                    multipath,
                )
    with obs.span("inject.vector.renewal"):
        renewals = independent(FailureType.DISK)
    with obs.span("inject.vector.independent"):
        others = {
            failure_type: independent(failure_type)
            for failure_type in active
            if failure_type is not FailureType.DISK
        }
    with obs.span("inject.vector.chain"):
        disk_candidates = CandidateSet.concat(
            [shocks[FailureType.DISK], renewals]
        )
        chain = run_disk_chain(
            streams,
            cohorts,
            disk_candidates.cohort,
            disk_candidates.slot,
            disk_candidates.time,
            config,
            rates[FailureType.DISK],
            window_end,
        )
    with obs.span("inject.vector.attach"):
        events = _attach(
            streams, cohorts, config, shocks, others, chain, window_end, recovered
        )
    if config.emit_recovered_errors:
        with obs.span("inject.vector.noise"):
            _sample_noise(
                streams, cohorts, config, chain, events, window_end, recovered
            )
    return events, chain


def _attach(
    streams: Streams,
    cohorts: CohortSet,
    config: InjectorConfig,
    shocks: Dict[FailureType, CandidateSet],
    others: Dict[FailureType, CandidateSet],
    chain: DiskChain,
    window_end: float,
    recovered: RecoveredBatch,
) -> DeliveredEvents:
    """Non-disk failures attach to whichever disk occupied the bay.

    Returns every delivered failure — the chain's disk failures, then
    each non-disk type in ``active`` order — cohort-major and in
    detection order within a cohort (ties keep that part order), so
    downstream draw order is content-determined rather than
    assembly-order-determined.
    """
    n_ev = int(chain.ev_slot.size)
    parts = [
        DeliveredEvents(
            cohort=chain.ev_cohort,
            slot=chain.ev_slot,
            gen=chain.ev_gen,
            occur=chain.ev_occur,
            detect=chain.ev_detect,
            type_code=np.full(n_ev, _TYPE_CODE[FailureType.DISK], np.int8),
            cause_code=np.full(n_ev, -1, np.int8),
            replaced=np.ones(n_ev, dtype=bool),
        )
    ]
    for failure_type, independents in others.items():
        code = _TYPE_CODE[failure_type]
        candidates = CandidateSet.concat([shocks[failure_type], independents])
        if not len(candidates):
            continue
        gen, remove, present = chain.resolve_occupancy(
            candidates.cohort, candidates.slot, candidates.time
        )
        masked = candidates.masked & present
        if config.emit_recovered_errors and masked.any():
            rows = np.flatnonzero(masked)
            recovered.add(
                candidates.cohort[rows],
                np.full(rows.size, code, dtype=np.int8),
                candidates.time[rows],
                candidates.slot[rows],
                gen[rows],
            )
        live = np.flatnonzero(~candidates.masked & present)
        if live.size == 0:
            continue
        sizes = np.bincount(candidates.cohort[live], minlength=len(cohorts))
        detect = candidates.time[live] + joined(
            [
                streams[c].uniform(0.0, config.detection_lag_max_seconds, size=n)
                for c, n in nonempty(sizes)
            ],
            np.float64,
        )
        valid = (detect < window_end) & (detect < remove[live])
        rows = live[valid]
        if rows.size == 0:
            continue
        parts.append(
            DeliveredEvents(
                cohort=candidates.cohort[rows],
                slot=candidates.slot[rows],
                gen=gen[rows],
                occur=candidates.time[rows],
                detect=detect[valid],
                type_code=np.full(rows.size, code, dtype=np.int8),
                cause_code=candidates.cause[rows],
                replaced=np.zeros(rows.size, dtype=bool),
            )
        )
    events = DeliveredEvents.concat(parts)
    return events.take(np.lexsort((events.detect, events.cohort)))


def _sample_noise(
    streams: Streams,
    cohorts: CohortSet,
    config: InjectorConfig,
    chain: DiskChain,
    events: DeliveredEvents,
    window_end: float,
    recovered: RecoveredBatch,
) -> None:
    """Recovered retry noise: precursor warnings plus background errors."""
    # Precursors: each delivered failure radiates Poisson-many recovered
    # incidents on its component in the days before it occurs, drawn
    # in each cohort's detection order.
    n_events = np.bincount(events.cohort, minlength=len(cohorts))
    counts = joined(
        [
            streams[c].poisson(config.recovered_errors_per_failure, size=n)
            for c, n in nonempty(n_events)
        ],
        np.int64,
    )
    totals = segment_sums(counts, offsets(n_events))
    if totals.any():
        event_of = np.repeat(np.arange(len(events)), counts)
        leads = joined(
            [
                streams[c].exponential(config.warning_lead_mean_seconds, size=n)
                for c, n in nonempty(totals)
            ],
            np.float64,
        )
        times = events.occur[event_of] - leads
        cohort = events.cohort[event_of]
        slot = events.slot[event_of]
        deploy = cohorts.slot_deploy[cohorts.slot_rows(cohort, slot)]
        rows = np.flatnonzero(times > deploy)  # none predate deployment
        recovered.add(
            cohort[rows],
            events.type_code[event_of[rows]],
            times[rows],
            slot[rows],
            events.gen[event_of[rows]],
        )

    # Background: every disk ever in service logs rare transient errors.
    background_rate = (
        config.background_error_rate_per_disk_year / SECONDS_PER_YEAR
    )
    if background_rate > 0.0:
        _sample_background(
            streams, cohorts, chain, background_rate, window_end, recovered
        )


def _sample_background(
    streams: Streams,
    cohorts: CohortSet,
    chain: DiskChain,
    rate: float,
    window_end: float,
    recovered: RecoveredBatch,
) -> None:
    """Background errors over every disk's service span.

    Each cohort's disks are its bays' deploy-time disks in bay order,
    then its replacement disks generation by generation: one fleet-wide
    disk array, with each cohort's replacements inserted after its bays.
    """
    n_bays = cohorts.slots.size
    end = np.full(n_bays, window_end)
    if chain.key.size:
        end[cohorts.slot_rows(chain.cohort, chain.slots)] = np.minimum(
            chain.rem[:, 0], window_end
        )
    gens, rows = np.nonzero(~np.isnan(chain.inst[:, 1:].T))
    by_cohort = np.argsort(chain.cohort[rows], kind="stable")
    rows, gens = rows[by_cohort], gens[by_cohort] + 1
    at = cohorts.slot_start[chain.cohort[rows] + 1]
    install = np.insert(cohorts.slot_deploy, at, chain.inst[rows, gens])
    spans = np.insert(end, at, np.minimum(chain.rem[rows, gens], window_end))
    del end
    spans -= install
    bounds = offsets(
        cohorts.slot_counts + np.bincount(chain.cohort[rows], minlength=len(cohorts))
    )

    usable = np.flatnonzero(spans > 0.0)
    usable_bounds = np.searchsorted(usable, bounds)
    lam = rate * spans[usable]
    counts = segment_poisson(streams, lam, usable_bounds, np.diff(usable_bounds) > 0)
    del lam
    totals = segment_sums(counts, usable_bounds)
    if not totals.any():
        return
    disk_of = np.repeat(usable, counts)
    del usable, counts
    fractions = joined(
        [streams[c].random(n) for c, n in nonempty(totals)], np.float64
    )
    type_codes = joined(
        [
            streams[c].integers(0, len(FAILURE_TYPE_ORDER), size=n, dtype=np.int64)
            for c, n in nonempty(totals)
        ],
        np.int64,
    )
    # Each picked disk's row in (bays, then replacements).
    source = np.insert(np.arange(n_bays), at, n_bays + np.arange(rows.size))[disk_of]

    def per_disk(bay_values: np.ndarray, replacement_values: np.ndarray) -> np.ndarray:
        return np.concatenate((bay_values, replacement_values))[source]

    recovered.add(
        per_disk(cohorts.slot_cohort, chain.cohort[rows]),
        type_codes,
        install[disk_of] + fractions * spans[disk_of],
        per_disk(cohorts.slots, chain.slots[rows]),
        per_disk(np.zeros(n_bays, dtype=np.int64), gens),
    )
