"""Burst detection: grouping failures that arrive close together.

The paper characterizes burstiness through the inter-arrival CDF; this
module makes the bursts themselves first-class — maximal runs of
failures within a scope (shelf / RAID group) whose consecutive gaps stay
under a threshold — so analyses can ask "how large do bursts get?" and
"what failure type drives them?", the questions a resiliency mechanism
designer needs answered (Implications of Findings 8-10).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.columns import first_occurrence_ranks
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.failures.types import FailureType
from repro.units import BURST_GAP_SECONDS


@dataclasses.dataclass(frozen=True)
class Burst:
    """A maximal run of close-together failures in one scope unit.

    Attributes:
        scope_id: the shelf or RAID group id.
        events: the member failures, in detection order (length >= 2).
    """

    scope_id: str
    events: tuple

    @property
    def size(self) -> int:
        """Failures in the burst."""
        return len(self.events)

    @property
    def span_seconds(self) -> float:
        """Time from first to last detection."""
        return self.events[-1].detect_time - self.events[0].detect_time

    @property
    def distinct_disks(self) -> int:
        """How many different disks the burst touched."""
        return len({event.disk_id for event in self.events})

    @property
    def dominant_type(self) -> FailureType:
        """The most frequent failure type in the burst."""
        counts: Dict[FailureType, int] = {}
        for event in self.events:
            counts[event.failure_type] = counts.get(event.failure_type, 0) + 1
        return max(counts, key=lambda ft: (counts[ft], ft.value))

    @property
    def pure(self) -> bool:
        """Whether all member failures share one type."""
        return len({event.failure_type for event in self.events}) == 1


def find_bursts(
    dataset: FailureDataset,
    scope: str = "shelf",
    gap_threshold: float = BURST_GAP_SECONDS,
    min_size: int = 2,
) -> List[Burst]:
    """Find all bursts in a dataset.

    Args:
        dataset: events + fleet (duplicates are collapsed first).
        scope: ``"shelf"`` or ``"raid_group"``.
        gap_threshold: max gap (seconds) between consecutive members.
        min_size: smallest run reported (>= 2).

    Returns:
        Bursts sorted by size (largest first), ties by earlier start.
    """
    if gap_threshold <= 0.0:
        raise AnalysisError("gap threshold must be positive")
    if min_size < 2:
        raise AnalysisError("a burst needs at least 2 failures")
    # Run boundaries fall out of one sorted pass: a new run starts
    # wherever the scope unit changes or the gap reaches the threshold.
    # Only qualifying runs materialize events.
    with obs.span("core.bursts", scope=scope):
        bursts = []
        table = dataset.deduplicated().table
        if len(table) >= min_size:
            codes, names = table.scope_codes(scope)
            ranks = first_occurrence_ranks(codes)
            order = np.lexsort((table.detect_time, ranks))
            times = table.detect_time[order]
            units = ranks[order]
            breaks = (units[1:] != units[:-1]) | (
                times[1:] - times[:-1] >= gap_threshold
            )
            starts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
            ends = np.concatenate((starts[1:], [len(table)]))
            for start, end in zip(starts, ends):
                if end - start < min_size:
                    continue
                members = order[start:end]
                bursts.append(
                    Burst(
                        scope_id=names.value(int(codes[members[0]])),
                        events=tuple(table.rows(members)),
                    )
                )
        bursts.sort(key=lambda b: (-b.size, b.events[0].detect_time))
        return bursts


@dataclasses.dataclass(frozen=True)
class BurstSummary:
    """Aggregate view of a dataset's bursts.

    Attributes:
        scope: analyzed scope.
        n_bursts: bursts found.
        events_in_bursts: failures belonging to some burst.
        total_events: all (deduplicated) failures.
        max_size: largest burst.
        size_histogram: burst count by size.
        dominant_type_counts: bursts per dominant failure type.
    """

    scope: str
    n_bursts: int
    events_in_bursts: int
    total_events: int
    max_size: int
    size_histogram: Dict[int, int]
    dominant_type_counts: Dict[str, int]

    @property
    def burst_event_share(self) -> float:
        """Share of failures that arrive as part of a burst."""
        if self.total_events == 0:
            return 0.0
        return self.events_in_bursts / self.total_events


def summarize_bursts(
    dataset: FailureDataset,
    scope: str = "shelf",
    gap_threshold: float = BURST_GAP_SECONDS,
) -> BurstSummary:
    """Aggregate burst statistics for one scope."""
    bursts = find_bursts(dataset, scope, gap_threshold)
    histogram: Dict[int, int] = {}
    type_counts: Dict[str, int] = {}
    for burst in bursts:
        histogram[burst.size] = histogram.get(burst.size, 0) + 1
        key = burst.dominant_type.value
        type_counts[key] = type_counts.get(key, 0) + 1
    return BurstSummary(
        scope=scope,
        n_bursts=len(bursts),
        events_in_bursts=sum(burst.size for burst in bursts),
        total_events=len(dataset.deduplicated()),
        max_size=max((burst.size for burst in bursts), default=0),
        size_histogram=dict(sorted(histogram.items())),
        dominant_type_counts=type_counts,
    )


def worst_burst(
    dataset: FailureDataset, scope: str = "shelf"
) -> Optional[Burst]:
    """The largest burst (None when no burst exists)."""
    bursts = find_bursts(dataset, scope)
    return bursts[0] if bursts else None
