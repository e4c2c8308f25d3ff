"""The failure injector: drives hazards and shocks over a whole fleet.

For every system the injector:

1. generates shelf-scoped shocks for each failure type (§5.2.3 mechanisms),
2. generates per-disk independent arrivals for the remaining rate share,
3. walks each disk bay in time order, applying disk failures (which
   remove the disk and install a replacement after a delay) and
   attaching non-disk failures to whichever disk occupied the bay,
4. applies multipath masking to physical interconnect faults on
   dual-path systems (masked faults become *recovered* component errors
   that never reach the RAID layer),
5. stamps every delivered failure with a detection time — the paper's
   systems scrub hourly, so detection lags occurrence by up to an hour.

The injector walks each system's disk objects, then commits the disk
removals and replacements to the fleet's lifetime table once, so exposure
accounting downstream sees correct per-disk lifetimes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import CalibrationError
from repro.core.columns import EventTable
from repro.failures.backends import resolve as resolve_backend
from repro.failures.events import ComponentError, FailureEvent
from repro.failures.hazards import renewal_arrivals
from repro.failures.multipath import MultipathModel
from repro.failures.raidlayer import component_errors_for_recovery
from repro.failures.shocks import Shock, generate_shocks
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    EXTENDED_FAILURE_TYPES,
    FAILURE_TYPE_ORDER,
    FailureType,
    InterconnectCause,
)
from repro.fleet import calibration, catalog
from repro.fleet.fleet import Fleet
from repro.raid.rebuild import RebuildModel
from repro.rng import RandomSource
from repro.topology.components import Disk, DiskSlot
from repro.topology.system import StorageSystem
from repro.units import SCRUB_PERIOD_SECONDS, SECONDS_PER_YEAR


@dataclasses.dataclass(frozen=True)
class InjectorConfig:
    """Tunable knobs of the failure injector.

    Attributes:
        shocks_enabled: when False, the full rate is delivered through
            independent per-disk hazards — the ablation that collapses
            Findings 8-11 back to the independence assumption.
        multipath: masking model for dual-path systems.
        detection_lag_max_seconds: scrub period; detection time is
            uniform in (occurrence, occurrence + lag].
        replacement_delay_mean_seconds: mean delay before a failed disk's
            replacement enters service.
        emit_recovered_errors: whether to record recovered (masked /
            retried) incidents as component errors for the log pipeline.
        warning_lead_mean_seconds: mean lead time by which a failure's
            precursor incidents (recovered retries on the ailing
            component) precede the failure itself — the signal the
            paper's future-work prediction algorithms would mine.
        background_error_rate_per_disk_year: rate of recovered incidents
            on perfectly healthy disks (transient noise), which is what
            makes prediction nontrivial.
        shock_params: per-type shock calibration (defaults from the
            calibration module).
        rate_multipliers: optional per-type scaling of the delivered
            rates (used by sensitivity studies; default all 1.0).
        disk_renewal_shape: gamma shape of the per-shelf disk-failure
            renewal process; 1.0 makes it an exponential (memoryless)
            process, the full-independence ablation.
        infant_mortality_factor: multiplier on the disk-failure hazard
            during each disk's first ``infant_period_seconds`` of life
            (1.0 = off, the paper-calibrated default; disk vendor
            studies — the paper's refs [4, 21] — report early-life
            failure elevation, which this knob lets users model).
        infant_period_seconds: length of the elevated-hazard period.
        hazard_backend: hazard backend spec (``"analytic"``,
            ``"trace:<path>"``, ``"fitted:<path>"``); ``None`` takes the
            run's :class:`~repro.runconfig.RunConfig` backend in
            ``make_engine`` and the analytic default elsewhere.  See
            :mod:`repro.failures.backends`.
        operator_error_rate_per_disk_year: delivered rate of the
            extended *operator error* failure type (mis-pulled drives,
            botched maintenance); 0.0 — the default — keeps the paper's
            four-type taxonomy and every committed golden untouched.
    """

    shocks_enabled: bool = True
    disk_renewal_shape: float = calibration.DISK_RENEWAL_GAMMA_SHAPE
    infant_mortality_factor: float = 1.0
    infant_period_seconds: float = 90.0 * 86_400.0
    multipath: MultipathModel = dataclasses.field(default_factory=MultipathModel)
    detection_lag_max_seconds: float = SCRUB_PERIOD_SECONDS
    replacement_delay_mean_seconds: float = calibration.DISK_REPLACEMENT_DELAY_MEAN
    emit_recovered_errors: bool = True
    recovered_errors_per_failure: float = calibration.RECOVERED_ERRORS_PER_FAILURE
    warning_lead_mean_seconds: float = 7.0 * 86_400.0
    background_error_rate_per_disk_year: float = 0.05
    shock_params: Mapping[FailureType, calibration.ShockParams] = dataclasses.field(
        default_factory=lambda: dict(calibration.SHOCK_PARAMS)
    )
    rate_multipliers: Mapping[FailureType, float] = dataclasses.field(
        default_factory=dict
    )
    hazard_backend: Optional[str] = None
    operator_error_rate_per_disk_year: float = 0.0

    def rate_multiplier(self, failure_type: FailureType) -> float:
        """Per-type delivered-rate scaling (1.0 when unset)."""
        return self.rate_multipliers.get(failure_type, 1.0)


class InjectionResult:
    """Everything the injector produced over a fleet.

    Attributes:
        events: delivered subsystem failures, sorted by detection time
            (lazily materialized from the columnar table after a cache
            round-trip or a vectorized run).
        recovered_errors: component errors of incidents that lower layers
            recovered (masked interconnect faults, successful retries);
            these never became subsystem failures.
        fleet: the (mutated) fleet, with disk replacements applied.

    Either ``events`` (the legacy injector's dataclass list) or
    ``table`` (the vector engine's columnar output) seeds the result;
    the other representation materializes on first access.  Similarly
    ``recovered_errors`` may be an eager list or any lazy batch object
    exposing ``__len__`` and ``materialize()``.
    """

    def __init__(
        self,
        events: Optional[List[FailureEvent]] = None,
        recovered_errors: object = None,
        fleet: Optional[Fleet] = None,
        table: Optional[EventTable] = None,
    ) -> None:
        if (events is None) == (table is None):
            raise ValueError("provide exactly one of events= or table=")
        self.fleet = fleet
        self._events: Optional[List[FailureEvent]] = (
            list(events) if events is not None else None
        )
        self._table: Optional[EventTable] = table
        if recovered_errors is None:
            recovered_errors = []
        if isinstance(recovered_errors, list):
            self._recovered: Optional[List[ComponentError]] = recovered_errors
            self._recovered_batch = None
        else:
            self._recovered = None
            self._recovered_batch = recovered_errors

    @property
    def events(self) -> List[FailureEvent]:
        """The delivered failures as dataclasses."""
        if self._events is None:
            self._events = list(self._table.events())
        return self._events

    @property
    def recovered_errors(self) -> List[ComponentError]:
        """Recovered incidents as dataclasses (materialized on demand)."""
        if self._recovered is None:
            self._recovered = self._recovered_batch.materialize()
        return self._recovered

    def n_events(self) -> int:
        """Delivered failure count, without materializing dataclasses."""
        if self._table is not None:
            return len(self._table)
        return len(self._events)

    def n_recovered(self) -> int:
        """Recovered error count, without materializing dataclasses."""
        if self._recovered is not None:
            return len(self._recovered)
        return len(self._recovered_batch)

    def to_table(self) -> EventTable:
        """The delivered failures as a columnar :class:`EventTable`.

        Cached: :meth:`FailureDataset.from_injection` and the result
        cache share one table per injection.
        """
        if self._table is None:
            self._table = EventTable.from_events(self._events)
        return self._table

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the columnar form; the shared table object means a
        # SimulationResult's injection and dataset cost one table.
        return {
            "table": self.to_table(),
            "recovered_errors": self.recovered_errors,
            "fleet": self.fleet,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._recovered = state["recovered_errors"]
        self._recovered_batch = None
        self.fleet = state["fleet"]
        self._events = None
        self._table = state["table"]

    def counts_by_type(self) -> Dict[FailureType, int]:
        """Event counts per failure type (Table 1's rightmost column).

        The paper's four types always appear; extended types (operator
        error) only when they actually produced events.
        """
        table_counts = self.to_table().counts_by_type()
        counts = {
            failure_type: int(table_counts[code])
            for code, failure_type in enumerate(ALL_FAILURE_TYPES)
        }
        for failure_type in EXTENDED_FAILURE_TYPES:
            if not counts[failure_type]:
                del counts[failure_type]
        return counts


def emit_fleet_events(result: InjectionResult) -> None:
    """Stream an injection onto the fleet event log (``--events``).

    One ``failure`` record per delivered subsystem failure, one
    ``rebuild`` record per disk failure (window length from the RAID
    rebuild model and the disk's catalog capacity), and one ``repair``
    record per replacement disk entering service — merged into
    simulation-time order so downstream consumers can stream the file
    without sorting.  Shared by the legacy and the vector injectors.
    """
    rebuild = RebuildModel()
    records: List[Dict[str, object]] = []
    for event in result.events:
        record: Dict[str, object] = {
            "type": "fleet",
            "kind": "failure",
            "t": event.detect_time,
            "occur_t": event.occur_time,
            "failure_type": event.failure_type.value,
            "disk_id": event.disk_id,
            "disk_model": event.disk_model,
            "shelf_id": event.shelf_id,
            "shelf_model": event.shelf_model,
            "raid_group_id": event.raid_group_id,
            "system_id": event.system_id,
            "system_class": event.system_class,
        }
        if event.cause is not None:
            record["cause"] = event.cause.value
        records.append(record)
        if event.failure_type is FailureType.DISK:
            try:
                capacity = catalog.disk_model(event.disk_model).capacity_gb
            except CalibrationError:
                capacity = 0  # off-catalog model: no rebuild estimate
            if capacity > 0:
                records.append(
                    {
                        "type": "fleet",
                        "kind": "rebuild",
                        "t": event.detect_time,
                        "duration_seconds": rebuild.window_seconds(capacity),
                        "disk_id": event.disk_id,
                        "shelf_id": event.shelf_id,
                        "raid_group_id": event.raid_group_id,
                        "system_id": event.system_id,
                    }
                )
    fleet = result.fleet
    # A replacement is a lifetime-table row that follows a row of the
    # same bay: the failed disk's removal to the new disk's install.
    rows = np.flatnonzero(fleet.disk_slot[1:] == fleet.disk_slot[:-1]) + 1
    if rows.size:
        slots = fleet.disk_slot[rows]
        installs = fleet.disk_install[rows].tolist()
        removes = fleet.disk_remove[rows - 1]
        downs = np.where(
            np.isinf(removes), 0.0, fleet.disk_install[rows] - removes
        ).tolist()
        shelf_ids = fleet.shelf_ids
        for failed, replacement, group, shelf, system, install, down in zip(
            fleet.disk_ids(rows - 1),
            fleet.disk_ids(rows),
            fleet.slot_group_ids(slots),
            fleet.slot_shelf[slots].tolist(),
            fleet.slot_system[slots].tolist(),
            installs,
            downs,
        ):
            records.append(
                {
                    "type": "fleet",
                    "kind": "repair",
                    "t": install,
                    "disk_id": failed,
                    "replacement_id": replacement,
                    "down_seconds": down,
                    "shelf_id": shelf_ids[shelf],
                    "raid_group_id": group,
                    "system_id": fleet.system_ids[system],
                }
            )
    records.sort(key=lambda record: record["t"])  # type: ignore[arg-type, return-value]
    obs.OBSERVER.fleet_events.emit_many(records)


class FailureInjector:
    """Generates the failure history of a fleet (see module docstring)."""

    def __init__(self, config: Optional[InjectorConfig] = None) -> None:
        self.config = config or InjectorConfig()
        self.backend = resolve_backend(self.config.hazard_backend)

    def inject(self, fleet: Fleet, random_source: RandomSource) -> InjectionResult:
        """Simulate failures over the fleet's observation window.

        The fleet is mutated: failed disks get ``remove_time`` set and
        replacement disks are installed into their bays, on the systems'
        disk objects and then, once, in the fleet's lifetime table.
        """
        events: List[FailureEvent] = []
        recovered: List[ComponentError] = []
        with obs.span("inject.fleet", systems=fleet.system_count):
            observing = obs.OBSERVER.registry.enabled
            for system in fleet.systems:
                rng = random_source.stream("inject", system.system_id)
                # Instrumentation, not simulation time: the per-system
                # latency metric below needs the wall clock.
                start = time.perf_counter() if observing else 0.0  # reprolint: disable=RPL002
                sys_events, sys_recovered = self._inject_system(
                    system, rng, fleet.duration_seconds
                )
                if observing:
                    obs.observe(
                        "inject.system",
                        time.perf_counter() - start,  # reprolint: disable=RPL002
                        system_class=system.system_class.value,
                    )
                events.extend(sys_events)
                recovered.extend(sys_recovered)
            with obs.span("inject.sort", events=len(events)):
                events.sort(key=lambda e: e.detect_time)
                recovered.sort(key=lambda e: e.time)
            fleet.commit_disks()
        result = InjectionResult(
            events=events, recovered_errors=recovered, fleet=fleet
        )
        if observing:
            for failure_type, n in result.counts_by_type().items():
                obs.inc("inject.events", n, failure_type=failure_type.value)
        if obs.OBSERVER.fleet_events.enabled:
            self._emit_fleet_events(result)
        return result

    def _emit_fleet_events(self, result: InjectionResult) -> None:
        emit_fleet_events(result)

    # -- per-system simulation --------------------------------------------

    def _inject_system(
        self,
        system: StorageSystem,
        rng: np.random.Generator,
        window_end: float,
    ) -> Tuple[List[FailureEvent], List[ComponentError]]:
        config = self.config
        backend = self.backend
        start = system.deploy_time
        active = backend.active_types(config)
        rates = {
            failure_type: backend.delivered_rate(
                config,
                system.system_class,
                failure_type,
                system.primary_disk_model,
                system.shelf_model,
            )
            for failure_type in active
        }

        shocks: List[Shock] = []
        use_shocks = backend.uses_shocks(config)
        if use_shocks:
            for shelf in system.shelves:
                for failure_type in active:
                    if failure_type not in config.shock_params:
                        continue  # extended types carry no shock share
                    shocks.extend(
                        generate_shocks(
                            rng,
                            failure_type,
                            shelf.shelf_id,
                            len(shelf.slots),
                            rates[failure_type],
                            config.shock_params[failure_type],
                            start,
                            window_end,
                        )
                    )

        # Interconnect shocks get a cause and a shock-level masking
        # decision: one cable fault is one failover, so all the disks it
        # afflicts are masked (or not) together.
        shock_causes: Dict[int, InterconnectCause] = {}
        shock_masked: Dict[int, bool] = {}
        for index, shock in enumerate(shocks):
            if shock.failure_type is FailureType.PHYSICAL_INTERCONNECT:
                cause = self._sample_cause(rng)
                shock_causes[index] = cause
                shock_masked[index] = config.multipath.masks(
                    rng, system.dual_path, cause
                )

        # Candidate failure times per bay, per type.  A candidate is
        # (time, cause, masked) — cause/masked only used for interconnect.
        Candidate = Tuple[float, Optional[InterconnectCause], bool]
        candidates: Dict[Tuple[str, FailureType], List[Candidate]] = {}

        shelf_slot_index = {
            shelf.shelf_id: shelf.slots for shelf in system.shelves
        }
        for index, shock in enumerate(shocks):
            slots = shelf_slot_index[shock.shelf_id]
            for slot_pos, delay in zip(shock.hit_slots, shock.spread_delays):
                time = shock.time + delay
                if time >= window_end:
                    continue
                key = (slots[slot_pos].slot_key, shock.failure_type)
                candidates.setdefault(key, []).append(
                    (
                        time,
                        shock_causes.get(index),
                        shock_masked.get(index, False),
                    )
                )

        shock_share = {
            failure_type: (
                config.shock_params[failure_type].rho
                if use_shocks and failure_type in config.shock_params
                else 0.0
            )
            for failure_type in active
        }
        slots = list(system.iter_slots())
        span = window_end - start
        for failure_type in active:
            indep_rate = rates[failure_type] * (1.0 - shock_share[failure_type])
            if indep_rate <= 0.0 or span <= 0.0:
                continue
            if backend.uses_renewal(config, failure_type):
                # Renewal-delivered types: one backend hazard per shelf
                # at the shelf's pooled rate, each arrival landing on a
                # random bay.  Under the analytic backend only disk
                # failures take this path — a mildly clustered gamma
                # renewal (shared thermal environment, §5.2.3), which is
                # what makes gamma the best Fig. 9 disk fit (Finding 8).
                for shelf in system.shelves:
                    if not shelf.slots:
                        continue
                    shelf_rate = indep_rate * len(shelf.slots)
                    hazard = backend.hazard(
                        config,
                        failure_type,
                        1.0 / shelf_rate,
                        system.system_class,
                    )
                    # Warm the process up to stationarity: an ordinary
                    # renewal process with clustered gaps over-delivers
                    # early (E[N(t)] ~ t/mean + (1/shape - 1)/2), which
                    # would silently inflate the delivered AFR.
                    warmup = 20.0 * hazard.mean
                    for time in renewal_arrivals(
                        rng, hazard, start - warmup, window_end
                    ):
                        if time < start:
                            continue
                        slot = shelf.slots[int(rng.integers(0, len(shelf.slots)))]
                        cause = None
                        masked = False
                        if failure_type is FailureType.PHYSICAL_INTERCONNECT:
                            cause = self._sample_cause(rng)
                            masked = config.multipath.masks(
                                rng, system.dual_path, cause
                            )
                        key = (slot.slot_key, failure_type)
                        candidates.setdefault(key, []).append(
                            (float(time), cause, masked)
                        )
                continue
            # Other types: vectorized per-system draw — one Poisson count
            # per bay, then uniform placement (an exact per-bay Poisson
            # process).
            counts = rng.poisson(indep_rate * span, size=len(slots))
            for slot, count in zip(slots, counts):
                if count == 0:
                    continue
                times = start + rng.random(int(count)) * span
                for time in times:
                    cause = None
                    masked = False
                    if failure_type is FailureType.PHYSICAL_INTERCONNECT:
                        cause = self._sample_cause(rng)
                        masked = config.multipath.masks(rng, system.dual_path, cause)
                    key = (slot.slot_key, failure_type)
                    candidates.setdefault(key, []).append((float(time), cause, masked))

        events: List[FailureEvent] = []
        recovered: List[ComponentError] = []

        # Disk failures first: they change which disk occupies a bay.
        for slot in system.iter_slots():
            disk_candidates = candidates.get((slot.slot_key, FailureType.DISK), [])
            events.extend(
                self._apply_disk_failures(
                    system,
                    slot,
                    sorted(disk_candidates),
                    rng,
                    window_end,
                    rates[FailureType.DISK],
                )
            )

        # Non-disk failures attach to whichever disk occupied the bay.
        for slot in system.iter_slots():
            for failure_type in active:
                if failure_type is FailureType.DISK:
                    continue
                for time, cause, masked in sorted(
                    candidates.get((slot.slot_key, failure_type), [])
                ):
                    disk = slot.disk_at(time)
                    if disk is None:
                        continue  # bay empty during a replacement gap
                    if masked:
                        if config.emit_recovered_errors:
                            recovered.extend(
                                component_errors_for_recovery(
                                    failure_type, disk.disk_id, time
                                )
                            )
                        continue
                    event = self._make_event(
                        system, slot, disk, failure_type, time, rng, window_end, cause
                    )
                    if event is not None:
                        events.append(event)

        if config.emit_recovered_errors:
            recovered.extend(self._retry_noise(system, events, rng, window_end))
        return events, recovered

    def _infant_failure_time(
        self,
        disk: Optional[Disk],
        rng: np.random.Generator,
        disk_rate: float,
        window_end: float,
    ) -> Optional[float]:
        """Extra early-life failure candidate for a freshly installed disk.

        With factor f > 1 the disk's hazard during its infant period is
        f x the base rate; the extra (f - 1) x base share is delivered
        here as at most one candidate inside the period.
        """
        factor = self.config.infant_mortality_factor
        if disk is None or factor <= 1.0 or disk_rate <= 0.0:
            return None
        extra_rate = (factor - 1.0) * disk_rate
        time = disk.install_time + float(rng.exponential(1.0 / extra_rate))
        cutoff = min(
            disk.install_time + self.config.infant_period_seconds, window_end
        )
        return time if time < cutoff else None

    def _apply_disk_failures(
        self,
        system: StorageSystem,
        slot: DiskSlot,
        disk_candidates: List[Tuple[float, Optional[InterconnectCause], bool]],
        rng: np.random.Generator,
        window_end: float,
        disk_rate: float,
    ) -> List[FailureEvent]:
        """Walk one bay in time order, failing and replacing disks."""
        config = self.config
        events: List[FailureEvent] = []
        current = slot.disks[-1] if slot.disks else None
        infant = self._infant_failure_time(current, rng, disk_rate, window_end)
        index = 0
        while current is not None and current.remove_time is None:
            regular = (
                disk_candidates[index][0]
                if index < len(disk_candidates)
                else None
            )
            if regular is None and infant is None:
                break
            if infant is not None and (regular is None or infant < regular):
                time = infant
                infant = None
            else:
                time = regular
                index += 1
            if time < current.install_time:
                continue  # candidate fell into the replacement gap
            detect = time + rng.uniform(0.0, config.detection_lag_max_seconds)
            if detect >= window_end:
                break  # failure not observed inside the study window
            current.remove_time = detect
            events.append(
                FailureEvent(
                    occur_time=time,
                    detect_time=detect,
                    failure_type=FailureType.DISK,
                    disk_id=current.disk_id,
                    shelf_id=current.shelf_id,
                    raid_group_id=slot.raid_group_id,
                    system_id=system.system_id,
                    system_class=system.system_class.value,
                    disk_model=current.model,
                    shelf_model=system.shelf_model,
                    dual_path=system.dual_path,
                    replaced_disk=True,
                )
            )
            install_time = detect + rng.exponential(
                config.replacement_delay_mean_seconds
            )
            if install_time >= window_end:
                break
            replacement = Disk(
                disk_id="%s#%d" % (slot.slot_key, len(slot.disks)),
                model=current.model,
                system_id=system.system_id,
                shelf_id=slot.shelf_id,
                slot_index=slot.slot_index,
                raid_group_id=slot.raid_group_id,
                install_time=install_time,
                serial="S%08X" % int(rng.integers(0, 2**32)),
            )
            slot.install(replacement)
            current = replacement
            infant = self._infant_failure_time(
                current, rng, disk_rate, window_end
            )
        return events

    def _make_event(
        self,
        system: StorageSystem,
        slot: DiskSlot,
        disk: Disk,
        failure_type: FailureType,
        time: float,
        rng: np.random.Generator,
        window_end: float,
        cause: Optional[InterconnectCause],
    ) -> Optional[FailureEvent]:
        detect = time + rng.uniform(0.0, self.config.detection_lag_max_seconds)
        if detect >= window_end or detect >= (disk.remove_time or float("inf")):
            return None
        return FailureEvent(
            occur_time=time,
            detect_time=detect,
            failure_type=failure_type,
            disk_id=disk.disk_id,
            shelf_id=disk.shelf_id,
            raid_group_id=slot.raid_group_id,
            system_id=system.system_id,
            system_class=system.system_class.value,
            disk_model=disk.model,
            shelf_model=system.shelf_model,
            dual_path=system.dual_path,
            cause=cause,
        )

    def _retry_noise(
        self,
        system: StorageSystem,
        events: List[FailureEvent],
        rng: np.random.Generator,
        window_end: float,
    ) -> List[ComponentError]:
        """Recovered retry incidents: log noise that never reached RAID.

        Two populations, mirroring what real support logs contain:

        - **precursors** — ailing components emit recovered incidents in
          the days *before* their failure (the paper's §7 future work —
          failure prediction from component errors — depends on exactly
          this structure);
        - **background** — healthy disks occasionally log transient,
          meaningless recovered incidents.
        """
        noise: List[ComponentError] = []
        lead_mean = self.config.warning_lead_mean_seconds
        for event in events:
            extra = rng.poisson(self.config.recovered_errors_per_failure)
            for _ in range(int(extra)):
                time = event.occur_time - float(rng.exponential(lead_mean))
                if time <= system.deploy_time:
                    continue  # precursor would predate deployment
                noise.extend(
                    component_errors_for_recovery(
                        event.failure_type, event.disk_id, time
                    )
                )
        background_rate = (
            self.config.background_error_rate_per_disk_year / SECONDS_PER_YEAR
        )
        if background_rate > 0.0:
            for slot in system.iter_slots():
                for disk in slot.disks:
                    end = (
                        disk.remove_time
                        if disk.remove_time is not None
                        else window_end
                    )
                    span = end - disk.install_time
                    if span <= 0.0:
                        continue
                    for _ in range(int(rng.poisson(background_rate * span))):
                        time = disk.install_time + float(rng.uniform(0.0, span))
                        failure_type = FAILURE_TYPE_ORDER[
                            int(rng.integers(0, len(FAILURE_TYPE_ORDER)))
                        ]
                        noise.extend(
                            component_errors_for_recovery(
                                failure_type, disk.disk_id, time
                            )
                        )
        return noise

    def _sample_cause(self, rng: np.random.Generator) -> InterconnectCause:
        """Draw an interconnect sub-cause from the calibrated mix."""
        roll = rng.random()
        acc = 0.0
        for cause, share in calibration.INTERCONNECT_CAUSE_MIX.items():
            acc += share
            if roll < acc:
                return cause
        return InterconnectCause.BACKPLANE
