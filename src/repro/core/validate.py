"""Dataset and configuration validation ("repro doctor").

Users can feed this library data from outside the simulator (CSV import,
parsed logs).  The validator checks the invariants every analysis
assumes, so a malformed import fails loudly here instead of producing a
silently wrong figure.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.dataset import FailureDataset
from repro.fleet import calibration, catalog


@dataclasses.dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation.

    Attributes:
        severity: ``"error"`` (analyses would be wrong) or ``"warning"``
            (suspicious but analyzable).
        message: what is wrong, with identifying detail.
    """

    severity: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "[%s] %s" % (self.severity.upper(), self.message)


def validate_dataset(dataset: FailureDataset, max_issues: int = 50) -> List[ValidationIssue]:
    """Check a dataset against the analysis invariants.

    Checks (errors): events reference existing systems/slots/disks,
    times lie inside the observation window, detection does not precede
    occurrence, event metadata matches the fleet's, removed disks carry
    a disk-failure-consistent lifetime.  Checks (warnings): duplicate
    events (same disk/type within the dedup window), events on disks
    outside their service interval.

    Returns:
        Issues found (possibly truncated to ``max_issues``), empty when
        the dataset is consistent.
    """
    issues: List[ValidationIssue] = []

    def add(severity: str, message: str) -> bool:
        issues.append(ValidationIssue(severity=severity, message=message))
        return len(issues) >= max_issues

    duration = dataset.duration_seconds
    seen_recent = {}
    for index, event in enumerate(dataset.events):
        try:
            system = dataset.fleet.system(event.system_id)
        except Exception:
            if add("error", "event %d references unknown system %r" % (index, event.system_id)):
                return issues
            continue
        if not 0.0 <= event.occur_time <= event.detect_time:
            if add("error", "event %d has inverted timestamps" % index):
                return issues
        if event.detect_time > duration:
            if add("error", "event %d detected after the window end" % index):
                return issues
        slot_key = event.disk_id.rsplit("#", 1)[0]
        try:
            slot = system.slot_by_key(slot_key)
        except Exception:
            if add("error", "event %d references unknown bay %r" % (index, slot_key)):
                return issues
            continue
        disk = next(
            (d for d in slot.disks if d.disk_id == event.disk_id), None
        )
        if disk is None:
            if add("error", "event %d references unknown disk %r" % (index, event.disk_id)):
                return issues
            continue
        if event.system_class != system.system_class.value:
            if add("error", "event %d class mismatch (%s vs %s)" % (
                    index, event.system_class, system.system_class.value)):
                return issues
        if event.shelf_model != system.shelf_model:
            if add("error", "event %d shelf-model mismatch" % index):
                return issues
        if event.occur_time < disk.install_time:
            if add("warning", "event %d predates its disk's installation" % index):
                return issues
        if disk.remove_time is not None and event.occur_time > disk.remove_time:
            if add("warning", "event %d postdates its disk's removal" % index):
                return issues
        key = (event.disk_id, event.failure_type)
        last = seen_recent.get(key)
        from repro.core.dataset import DEDUP_WINDOW_SECONDS

        if last is not None and event.detect_time - last < DEDUP_WINDOW_SECONDS:
            if add("warning", "duplicate report: disk %s %s within the dedup window" % (
                    event.disk_id, event.failure_type.value)):
                return issues
        seen_recent[key] = event.detect_time

    return issues


def validate_calibration() -> List[ValidationIssue]:
    """Check the built-in calibration and catalog tables."""
    issues: List[ValidationIssue] = []
    try:
        calibration.validate()
    except Exception as exc:
        issues.append(ValidationIssue("error", "calibration: %s" % exc))
    try:
        catalog.validate()
    except Exception as exc:
        issues.append(ValidationIssue("error", "catalog: %s" % exc))
    return issues


def doctor(dataset: FailureDataset) -> str:
    """Human-readable validation report (the ``repro doctor`` command)."""
    issues = validate_calibration() + validate_dataset(dataset)
    if not issues:
        return (
            "doctor: no issues found (%d events, %d systems, tables OK)"
            % (len(dataset), dataset.fleet.system_count)
        )
    lines = ["doctor: %d issue(s) found" % len(issues)]
    lines.extend("  %s" % issue for issue in issues)
    return "\n".join(lines)
