"""Batched hazard sampling: candidate generation over every cohort.

The three candidate sources of the failure model — shelf-scoped
shocks, per-shelf renewal disk arrivals, and independent per-bay
Poisson arrivals — as vectorized draws: the order-statistics Poisson
construction, renewals with a stationary start, and per-hit
Bernoulli/exponential shock spread.

Each function runs once over a whole :class:`CohortSet`, stage-major:
masks, sums, repeats and searches are fleet-wide vector operations, and
only the draws loop over cohorts, each from its own stream (see
:meth:`repro.simulate.vector.cohorts.CohortSet.stream`).  Every stream
sees the same calls with the same sizes, in the same order, as when the
cohorts are sampled one at a time; a cohort with nothing to draw makes
no call.  Results are :class:`CandidateSet` columns in cohort-major
order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columns import CAUSE_ORDER
from repro.failures.multipath import MultipathModel
from repro.fleet import calibration
from repro.fleet.calibration import ShockParams
from repro.fleet.fleet import offsets
from repro.simulate.vector.cohorts import (
    CohortSet,
    Streams,
    joined,
    nonempty,
    ranges,
    segment_poisson,
    segment_sums,
)

#: Interconnect sub-cause mix as arrays: cumulative shares in the
#: calibration dict's order, and the matching CAUSE_ORDER codes.
_MIX_CUM = np.cumsum(
    np.asarray(list(calibration.INTERCONNECT_CAUSE_MIX.values()), dtype=np.float64)
)
_MIX_CODES = np.asarray(
    [CAUSE_ORDER.index(cause) for cause in calibration.INTERCONNECT_CAUSE_MIX],
    dtype=np.int8,
)
#: Per-CAUSE_ORDER-code maskability (only network-path faults fail over).
_MASKABLE = np.asarray(
    [cause.maskable_by_multipath for cause in CAUSE_ORDER], dtype=bool
)

#: Minimum gap draws per renewal-process growth round; the first round
#: is sized to the expected arrival count so most shelves finish in one
#: vector pass.
_RENEWAL_BATCH_FLOOR = 8


@dataclasses.dataclass
class CandidateSet:
    """Flat candidate arrays for one failure type, cohort-major.

    Attributes:
        cohort: cohort index per candidate.
        slot: global slot index per candidate.
        time: occurrence time per candidate.
        cause: CAUSE_ORDER code per candidate (-1 = no cause).
        masked: whether multipath masked the candidate.
    """

    cohort: np.ndarray
    slot: np.ndarray
    time: np.ndarray
    cause: np.ndarray
    masked: np.ndarray

    def __len__(self) -> int:
        return int(self.time.shape[0])

    @classmethod
    def empty(cls) -> "CandidateSet":
        return cls(
            cohort=np.zeros(0, dtype=np.int64),
            slot=np.zeros(0, dtype=np.int64),
            time=np.zeros(0, dtype=np.float64),
            cause=np.full(0, -1, dtype=np.int8),
            masked=np.zeros(0, dtype=bool),
        )

    @classmethod
    def concat(cls, parts: List["CandidateSet"]) -> "CandidateSet":
        """The parts one after another, regrouped cohort-major.

        The regrouping is stable, so each cohort's candidates keep the
        parts' order: a cohort's rows of ``parts[0]`` come first.
        """
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        columns = [
            np.concatenate([getattr(part, field.name) for part in parts])
            for field in dataclasses.fields(cls)
        ]
        order = np.argsort(columns[0], kind="stable")
        return cls(*(column[order] for column in columns))


def _sample_causes_and_masks(
    streams: Streams,
    cohorts: CohortSet,
    sizes: np.ndarray,
    multipath: MultipathModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Interconnect cause + masking draws for ``sizes[c]`` faults per cohort."""
    rolls = joined([streams[c].random(n) for c, n in nonempty(sizes)], np.float64)
    picks = np.minimum(
        np.searchsorted(_MIX_CUM, rolls, side="right"), len(_MIX_CODES) - 1
    )
    causes = _MIX_CODES[picks]
    masked = np.zeros(rolls.size, dtype=bool)
    if multipath.mask_probability > 0.0:
        dual_sizes = np.where(cohorts.dual_path, sizes, 0)
        if dual_sizes.any():
            mask_rolls = joined(
                [streams[c].random(n) for c, n in nonempty(dual_sizes)], np.float64
            )
            dual = np.repeat(cohorts.dual_path, sizes)
            masked[dual] = _MASKABLE[causes[dual]] & (
                mask_rolls < multipath.mask_probability
            )
    return causes, masked


def _causes(
    streams: Streams,
    cohorts: CohortSet,
    failure_type,
    sizes: np.ndarray,
    multipath: MultipathModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-candidate causes and masks: drawn for interconnect faults only."""
    if failure_type.value == "physical_interconnect":
        return _sample_causes_and_masks(streams, cohorts, sizes, multipath)
    total = int(sizes.sum())
    return np.full(total, -1, dtype=np.int8), np.zeros(total, dtype=bool)


def sample_shock_candidates(
    streams: Streams,
    cohorts: CohortSet,
    failure_type,
    rates: np.ndarray,
    params: ShockParams,
    window_end: float,
    multipath: MultipathModel,
) -> CandidateSet:
    """All shock-induced candidates of one type across every cohort.

    The shared-shock model (DESIGN §2) with shock-level cause/mask
    assignment: one Poisson onset stream per shelf, per-onset Bernoulli hits over the shelf's bays,
    exponential spread delays, and (for interconnect) one cause and one
    masking decision shared by every disk the shock afflicts.
    ``rates`` holds each cohort's delivered rate of the type.
    """
    live = (rates > 0.0) & (cohorts.shelf_counts > 0)
    if not live.any():
        return CandidateSet.empty()
    spans = np.maximum(window_end - cohorts.shelf_deploy, 0.0)
    onset_rate = params.rho * rates / params.hit_prob
    lam = np.repeat(onset_rate, cohorts.shelf_counts) * spans
    counts = segment_poisson(streams, lam, cohorts.shelf_start, live)
    totals = segment_sums(counts, cohorts.shelf_start)
    if not totals.any():
        return CandidateSet.empty()
    shelf_of = np.repeat(np.arange(spans.size), counts)
    onsets = cohorts.shelf_deploy[shelf_of] + joined(
        [streams[c].random(n) for c, n in nonempty(totals)], np.float64
    ) * spans[shelf_of]
    causes, masked = _causes(streams, cohorts, failure_type, totals, multipath)

    # Bernoulli hit draws: one uniform per (onset, bay) pair.
    bays = cohorts.shelf_n_slots[shelf_of]
    draw_bounds = offsets(bays)
    onset_of_draw = np.repeat(np.arange(shelf_of.size), bays)
    local_slot = np.arange(draw_bounds[-1], dtype=np.int64) - np.repeat(
        draw_bounds[:-1], bays
    )
    draws = segment_sums(bays, offsets(totals))
    hit = joined(
        [streams[c].random(n) for c, n in nonempty(draws)], np.float64
    ) < params.hit_prob
    hit_onset = onset_of_draw[hit]
    hit_local = local_slot[hit]
    hits = segment_sums(hit, offsets(draws))
    delays = joined(
        [
            streams[c].exponential(params.window_mean_seconds, size=n)
            for c, n in nonempty(hits)
        ],
        np.float64,
    )
    times = onsets[hit_onset] + delays
    keep = times < window_end
    hit_onset = hit_onset[keep]
    hit_shelf = shelf_of[hit_onset]
    return CandidateSet(
        cohort=cohorts.shelf_cohort[hit_shelf],
        slot=cohorts.shelf_offset[hit_shelf] + hit_local[keep],
        time=times[keep],
        cause=causes[hit_onset],
        masked=masked[hit_onset],
    )


def sample_renewal_candidates(
    streams: Streams,
    cohorts: CohortSet,
    failure_type,
    indep_rates: np.ndarray,
    backend,
    config,
    window_end: float,
    multipath: MultipathModel,
) -> CandidateSet:
    """Non-shock candidates of a renewal-delivered type: batched draws.

    One renewal process per shelf at rate ``indep_rate * n_slots``,
    with the gap distribution supplied by the hazard backend.  Each
    process starts in equilibrium: the first post-deploy arrival is
    drawn *directly* from the forward-recurrence distribution
    (``deploy + U * L`` with ``L`` a length-biased gap — the backend's
    ``equilibrium_delay``), the limit that warming a process up before
    deployment approximates, without the wasted draws.  (An ordinary
    renewal process with clustered gaps started at deployment would
    over-deliver early and inflate the AFR.)  Each arrival lands on a uniformly random bay of its
    shelf; interconnect arrivals additionally draw a per-candidate
    cause and masking decision.

    Under the analytic backend only disk failures take this path
    (gamma renewals, Finding 8); trace/fitted backends route every type
    through it.
    """
    live = (indep_rates > 0.0) & (cohorts.slot_counts > 0)
    rows = np.flatnonzero(
        np.repeat(live, cohorts.shelf_counts) & (cohorts.shelf_n_slots > 0)
    )
    if rows.size == 0:
        return CandidateSet.empty()
    # Shelves of one cohort with equal bay counts share one gap
    # distribution and advance as one group, groups in ascending bay
    # count.  A cohort's second group starts only after its first has
    # finished, so groups run by rank within their cohort ("level").
    row_bays = cohorts.shelf_n_slots[rows]
    bay_span = int(row_bays.max()) + 1
    group_keys, group_of_row = np.unique(
        cohorts.shelf_cohort[rows] * bay_span + row_bays, return_inverse=True
    )
    group_of_row = group_of_row.reshape(-1)
    group_cohort, group_bays = np.divmod(group_keys, bay_span)
    first_group = np.searchsorted(group_cohort, group_cohort)
    group_level = np.arange(group_keys.size) - first_group

    hazards: Dict[tuple, object] = {}
    group_hazard = []
    rates = indep_rates.tolist()
    for c, n_bays in zip(group_cohort.tolist(), group_bays.tolist()):
        mean = 1.0 / (rates[c] * float(n_bays))
        system_class = cohorts.keys[c][0]
        hazard = hazards.get((mean, system_class))
        if hazard is None:
            hazard = hazards[(mean, system_class)] = backend.hazard(
                config, failure_type, mean, system_class
            )
        group_hazard.append(hazard)
    group_mean = np.asarray([hazard.mean for hazard in group_hazard])

    times_parts: List[np.ndarray] = []
    shelf_parts: List[np.ndarray] = []
    for level in range(int(group_level.max()) + 1):
        groups = np.flatnonzero(group_level == level)
        at_level = group_level[group_of_row] == level
        level_rows = rows[at_level]
        level_group = np.searchsorted(groups, group_of_row[at_level])
        level_hazard = [group_hazard[g] for g in groups.tolist()]
        level_stream = [streams[c] for c in group_cohort[groups].tolist()]
        sizes = np.bincount(level_group, minlength=groups.size).tolist()
        delays = joined(
            [
                hazard.equilibrium_delay(stream, n)
                for hazard, stream, n in zip(level_hazard, level_stream, sizes)
            ],
            np.float64,
        )
        current = cohorts.shelf_deploy[level_rows] + delays
        started = current < window_end
        times_parts.append(current[started])
        shelf_parts.append(level_rows[started])
        alive = np.flatnonzero(started)
        if not alive.size:
            continue
        # Per group: a first batch sized to its expected arrival count.
        alive_group = level_group[alive]
        alive_groups = np.unique(alive_group)
        earliest = np.full(groups.size, np.inf)
        earliest[alive_groups] = np.minimum.reduceat(
            current[alive], np.searchsorted(alive_group, alive_groups)
        )
        horizon = (window_end - earliest) / group_mean[groups]
        batch = np.zeros(groups.size, dtype=np.int64)
        finite = np.isfinite(horizon)
        batch[finite] = np.maximum(
            _RENEWAL_BATCH_FLOOR,
            (horizon[finite] + 4.0 * np.sqrt(horizon[finite]) + 4.0).astype(np.int64),
        )
        widths = batch.tolist()
        while alive.size:
            alive_group = level_group[alive]
            width = batch[alive_group]
            gaps = joined(
                [
                    level_hazard[g]
                    .sample_cohort(level_stream[g], (n, widths[g]))
                    .reshape(-1)
                    for g, n in nonempty(
                        np.bincount(alive_group, minlength=groups.size)
                    )
                ],
                np.float64,
            )
            # One matrix for every process; rows shorter than the widest
            # batch are padded on the right with +inf, which leaves each
            # row's prefix sums over its own draws exact.
            top = int(width.max())
            if int(width.min()) == top:
                matrix = gaps.reshape(alive.size, top)
            else:
                matrix = np.full((alive.size, top), np.inf)
                matrix.reshape(-1)[
                    ranges(np.arange(alive.size, dtype=np.int64) * top, width)
                ] = gaps
            arrivals = current[alive][:, None] + np.cumsum(matrix, axis=1)
            hit_row, hit_col = np.nonzero(arrivals < window_end)
            times_parts.append(arrivals[hit_row, hit_col])
            shelf_parts.append(level_rows[alive[hit_row]])
            last = arrivals[np.arange(alive.size), width - 1]
            current[alive] = last
            alive = alive[last < window_end]

    times = np.concatenate(times_parts)
    if times.size == 0:
        return CandidateSet.empty()
    shelf_rows = np.concatenate(shelf_parts)
    # Cohort-major, each cohort's arrivals in production order.
    order = np.argsort(cohorts.shelf_cohort[shelf_rows], kind="stable")
    times = times[order]
    shelf_rows = shelf_rows[order]
    cohort = cohorts.shelf_cohort[shelf_rows]
    sizes = np.bincount(cohort, minlength=len(cohorts))
    bounds = offsets(sizes).tolist()
    highs = cohorts.shelf_n_slots[shelf_rows]
    locals_ = joined(
        [
            streams[c].integers(
                0, highs[bounds[c] : bounds[c + 1]], size=n, dtype=np.int64
            )
            for c, n in nonempty(sizes)
        ],
        np.int64,
    )
    causes, masked = _causes(streams, cohorts, failure_type, sizes, multipath)
    return CandidateSet(
        cohort=cohort,
        slot=cohorts.shelf_offset[shelf_rows] + locals_,
        time=times,
        cause=causes,
        masked=masked,
    )


def sample_independent(
    streams: Streams,
    cohorts: CohortSet,
    failure_type,
    indep_rates: np.ndarray,
    window_end: float,
    multipath: MultipathModel,
) -> CandidateSet:
    """Independent per-bay Poisson candidates for a non-disk type.

    One Poisson count per bay over its deployment window, uniform
    placement (the order-statistics construction), and per-candidate
    cause/mask draws for interconnect faults.
    """
    live = (indep_rates > 0.0) & (cohorts.slot_counts > 0)
    if not live.any():
        return CandidateSet.empty()
    spans = np.maximum(window_end - cohorts.slot_deploy, 0.0)
    lam = np.repeat(indep_rates, cohorts.slot_counts)
    lam *= spans
    counts = segment_poisson(streams, lam, cohorts.slot_start, live)
    del lam
    totals = segment_sums(counts, cohorts.slot_start)
    if not totals.any():
        return CandidateSet.empty()
    slot_of = np.repeat(np.arange(spans.size), counts)
    del counts
    times = cohorts.slot_deploy[slot_of] + joined(
        [streams[c].random(n) for c, n in nonempty(totals)], np.float64
    ) * spans[slot_of]
    causes, masked = _causes(streams, cohorts, failure_type, totals, multipath)
    return CandidateSet(
        cohort=np.repeat(np.arange(len(cohorts), dtype=np.int64), totals),
        slot=cohorts.slots[slot_of],
        time=times,
        cause=causes,
        masked=masked,
    )
