"""The failure model's configuration and the injection result.

:class:`InjectorConfig` holds every knob of the failure model: shock
processes on or off, disk renewal shape, infant mortality, multipath
masking, detection lag, replacement delay, the recovered-error noise,
per-type rate multipliers and the hazard backend.
:class:`~repro.simulate.vector.engine.VectorFailureInjector` simulates
it over a fleet, and :class:`InjectionResult` holds what it produced:
the delivered failures as a columnar
:class:`~repro.core.columns.EventTable`, the recovered incidents, and
the fleet with its disk removals and replacements applied.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.errors import CalibrationError
from repro.core.columns import EventTable
from repro.failures.events import ComponentError, FailureEvent
from repro.failures.multipath import MultipathModel
from repro.failures.types import (
    ALL_FAILURE_TYPES,
    EXTENDED_FAILURE_TYPES,
    FailureType,
)
from repro.fleet import calibration, catalog
from repro.fleet.fleet import Fleet
from repro.raid.rebuild import RebuildModel
from repro.units import SCRUB_PERIOD_SECONDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.simulate.vector.emit import RecoveredBatch


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
    operator_error_rate_per_disk_year: float = 0.0

    def rate_multiplier(self, failure_type: FailureType) -> float:
        """Per-type delivered-rate scaling (1.0 when unset)."""
        return self.rate_multipliers.get(failure_type, 1.0)


class InjectionResult:
    """Everything the injector produced over a fleet.

    Attributes:
        events: delivered subsystem failures, sorted by detection time
            (materialized lazily from the columnar table).
        recovered_batch: the incidents that lower layers recovered
            (masked interconnect faults, successful retries), which
            never became subsystem failures, as flat arrays.
        recovered_errors: the same incidents as time-sorted component
            error records (materialized on first access).
        fleet: the (mutated) fleet, with disk replacements applied.

    ``table`` (the injector's columnar output) seeds the result; the
    dataclass list materializes on first access.
    """

    def __init__(
        self,
        table: EventTable,
        recovered_errors: RecoveredBatch,
        fleet: Optional[Fleet] = None,
    ) -> None:
        self.fleet = fleet
        self.recovered_batch = recovered_errors
        self._events: Optional[List[FailureEvent]] = None
        self._recovered: Optional[List[ComponentError]] = None
        self._table = table

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
            self._recovered = self.recovered_batch.materialize()
        return self._recovered

    def n_events(self) -> int:
        """Delivered failure count, without materializing dataclasses."""
        return len(self._table)

    def n_recovered(self) -> int:
        """Recovered error count, without materializing dataclasses."""
        return len(self.recovered_batch)

    def to_table(self) -> EventTable:
        """The delivered failures as a columnar :class:`EventTable`.

        :meth:`FailureDataset.from_injection` and the result cache share
        this one table per injection.
        """
        return self._table

    def __getstate__(self) -> Dict[str, object]:
        # Pickle the columnar forms; the shared table object means a
        # SimulationResult's injection and dataset cost one table.
        return {
            "table": self.to_table(),
            "recovered_errors": self.recovered_batch,
            "fleet": self.fleet,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["table"], state["recovered_errors"], state["fleet"])

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
    without sorting.
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
