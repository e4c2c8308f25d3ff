"""The batched disk-replacement chain: per-bay event queues, advanced
in lock-step rounds.

Disk failures are the one place the failure model is genuinely
sequential: a bay's candidate only matters if it hits the disk
*currently* in the bay, and each failure installs a replacement whose
install time gates the next candidate.  The vector engine keeps that
semantics but advances **every chained bay of every cohort together**:
each round selects, per still-active bay, the earliest pending
candidate (regular or infant-mortality), applies detection/replacement
draws, and records the new disk generation.  The number of rounds is
the maximum replacement-chain depth over the fleet (almost always
1-2), not the number of bays or cohorts.  Within a round only the
draws loop over cohorts, each from its own stream, so every stream
sees the same calls, in the same order, as a cohort-at-a-time chain.

The resulting :class:`DiskChain` doubles as the fleet's occupancy
index: non-disk candidates resolve "which disk generation occupied bay
``b`` at time ``t``" against its install/remove matrices without
touching the fleet's lifetime table.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro.failures.injector import InjectorConfig
from repro.simulate.vector.cohorts import CohortSet, Streams, joined, nonempty

#: Initial generation capacity of the install/remove matrices; grown
#: geometrically for the rare bay that chews through more replacements.
_INITIAL_GENERATIONS = 4


@dataclasses.dataclass
class DiskChain:
    """Replacement history of the chained bays of every cohort.

    Attributes:
        key: ``cohort * slot_span + slot`` per chained bay, ascending
            (so cohort-major, bays ascending within a cohort).
        cohort / slots: the chained bays' cohorts and global slots.
        slot_span: the cohort set's slot bound the keys use.
        inst: install time per (chained bay, generation); NaN where the
            generation never existed.  Generation 0 is the deploy-time
            disk.
        rem: remove (detection) time per (bay, generation); +inf while
            the disk was still in service at window end.
        ev_cohort / ev_slot / ev_gen / ev_occur / ev_detect: one row per
            delivered disk failure, cohort-major, in round order within
            a cohort.
        rep_slot / rep_gen / rep_install / rep_serial: one row per
            replacement disk that entered service.
    """

    key: np.ndarray
    cohort: np.ndarray
    slots: np.ndarray
    slot_span: int
    inst: np.ndarray
    rem: np.ndarray
    ev_cohort: np.ndarray
    ev_slot: np.ndarray
    ev_gen: np.ndarray
    ev_occur: np.ndarray
    ev_detect: np.ndarray
    rep_slot: np.ndarray
    rep_gen: np.ndarray
    rep_install: np.ndarray
    rep_serial: np.ndarray

    def resolve_occupancy(
        self, cohort: np.ndarray, slot: np.ndarray, time: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which disk occupied each (cohort, bay, time) query — vectorized.

        Returns:
            ``(gen, remove_time, present)`` arrays: the occupying disk's
            generation and remove time (inf = in service at window end),
            and whether a disk was present at all (False inside a
            replacement gap).  Bays without chain state always hold
            their generation-0 disk (queries never precede deployment).
        """
        n = int(slot.shape[0])
        gen = np.zeros(n, dtype=np.int64)
        remove = np.full(n, np.inf)
        present = np.ones(n, dtype=bool)
        if n == 0 or self.key.size == 0:
            return gen, remove, present
        query = cohort * self.slot_span + slot
        pos = np.minimum(np.searchsorted(self.key, query), self.key.size - 1)
        rows = np.flatnonzero(self.key[pos] == query)
        if rows.size == 0:
            return gen, remove, present
        p = pos[rows]
        t = time[rows]
        found = np.full(rows.size, -1, dtype=np.int64)
        for g in range(self.inst.shape[1]):
            inst_g = self.inst[p, g]
            rem_g = self.rem[p, g]
            hit = (found < 0) & (inst_g <= t) & (t < rem_g)  # NaN inst -> False
            found[hit] = g
        present[rows] = found >= 0
        occupied = rows[found >= 0]
        gen[occupied] = found[found >= 0]
        remove[occupied] = self.rem[p[found >= 0], found[found >= 0]]
        return gen, remove, present


def _infant_times(
    streams: Streams,
    cohort: np.ndarray,
    install: np.ndarray,
    config: InjectorConfig,
    extra_rates: List[float],
    window_end: float,
) -> np.ndarray:
    """Batched early-life failure candidates (inf = none in the period).

    ``extra_rates[c]`` is cohort ``c``'s added early-life hazard, 0.0
    where infant mortality is off; ``cohort`` is cohort-major.
    """
    times = np.full(install.size, np.inf)
    sizes = np.bincount(cohort, minlength=len(extra_rates))
    sizes[np.asarray(extra_rates) <= 0.0] = 0
    if not sizes.any():
        return times
    rows = np.flatnonzero(sizes[cohort])
    times[rows] = install[rows] + joined(
        [
            streams[c].exponential(1.0 / extra_rates[c], size=n)
            for c, n in nonempty(sizes)
        ],
        np.float64,
    )
    cutoff = np.minimum(install + config.infant_period_seconds, window_end)
    return np.where(times < cutoff, times, np.inf)


def run_disk_chain(
    streams: Streams,
    cohorts: CohortSet,
    cand_cohort: np.ndarray,
    cand_slot: np.ndarray,
    cand_time: np.ndarray,
    config: InjectorConfig,
    disk_rates: np.ndarray,
    window_end: float,
) -> DiskChain:
    """Advance every chained bay of every cohort through its disk failures.

    Semantics are those of a per-bay walk: candidates in time
    order per bay; candidates inside a replacement gap are consumed
    without effect; an infant-mortality candidate preempts a regular one
    only when strictly earlier; detection beyond the window ends the
    bay's chain with the disk surviving; a replacement beyond the window
    ends it with the bay empty.  ``disk_rates`` holds each cohort's
    delivered disk rate.
    """
    n_cohorts = len(cohorts)
    span = cohorts.slot_span
    factor = config.infant_mortality_factor
    infant_on = (factor > 1.0) & (disk_rates > 0.0)
    extra_rates = np.where(infant_on, (factor - 1.0) * disk_rates, 0.0).tolist()
    # Chained bays: every bay with a candidate, plus every bay of a
    # cohort with infant mortality on.
    keys = [cand_cohort * span + cand_slot]
    if infant_on.any():
        every = np.repeat(infant_on, cohorts.slot_counts)
        keys.append(cohorts.slot_key[every])
    chain_key = np.unique(np.concatenate(keys))
    chain_cohort, chain_slots = np.divmod(chain_key, span)
    n = int(chain_key.shape[0])
    deploy = cohorts.slot_deploy[cohorts.slot_rows(chain_cohort, chain_slots)]

    # Per-bay candidate segments: lexsort by (bay, time) and index by
    # contiguous [seg_lo, seg_hi) ranges.
    bay_of = np.searchsorted(chain_key, cand_cohort * span + cand_slot)
    order = np.lexsort((cand_time, bay_of))
    ct = cand_time[order]
    cb = bay_of[order]
    seg_lo = np.searchsorted(cb, np.arange(n), side="left")
    seg_hi = np.searchsorted(cb, np.arange(n), side="right")
    ct_pad = np.concatenate((ct, [np.inf]))

    ptr = seg_lo.copy()
    install = deploy.copy()
    gen = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    infant = _infant_times(
        streams, chain_cohort, install, config, extra_rates, window_end
    )

    n_gens = _INITIAL_GENERATIONS
    inst = np.full((n, n_gens), np.nan)
    rem = np.full((n, n_gens), np.inf)
    if n:
        inst[:, 0] = deploy

    ev_cohort, ev_slot, ev_gen, ev_occur, ev_detect = [], [], [], [], []
    rep_slot, rep_gen, rep_install, rep_serial = [], [], [], []

    def sizes_of(rows: np.ndarray) -> np.ndarray:
        return np.bincount(chain_cohort[rows], minlength=n_cohorts)

    while True:
        # Consume candidates that fell inside a replacement gap.
        while True:
            cand = np.where(ptr < seg_hi, ct_pad[np.minimum(ptr, ct.size)], np.inf)
            gap = active & (cand < install)
            if not gap.any():
                break
            ptr[gap] += 1

        t_next = np.minimum(cand, infant)
        sel = active & np.isfinite(t_next)
        if not sel.any():
            break
        rows = np.flatnonzero(sel)
        from_infant = infant[rows] < cand[rows]  # tie goes to the regular
        ptr[rows[~from_infant]] += 1
        occur = t_next[rows]
        infant[rows] = np.inf

        detect = occur + joined(
            [
                streams[c].uniform(0.0, config.detection_lag_max_seconds, size=k)
                for c, k in nonempty(sizes_of(rows))
            ],
            np.float64,
        )
        observed = detect < window_end
        active[rows[~observed]] = False  # unobserved: the disk survives
        orows = rows[observed]
        if orows.size:
            o_detect = detect[observed]
            ev_cohort.append(chain_cohort[orows])
            ev_slot.append(chain_slots[orows])
            ev_gen.append(gen[orows])
            ev_occur.append(occur[observed])
            ev_detect.append(o_detect)
            rem[orows, gen[orows]] = o_detect

            new_install = o_detect + joined(
                [
                    streams[c].exponential(
                        config.replacement_delay_mean_seconds, size=k
                    )
                    for c, k in nonempty(sizes_of(orows))
                ],
                np.float64,
            )
            in_window = new_install < window_end
            active[orows[~in_window]] = False  # bay stays empty
            irows = orows[in_window]
            if irows.size:
                serials = joined(
                    [
                        streams[c].integers(0, 2**32, size=k)
                        for c, k in nonempty(sizes_of(irows))
                    ],
                    np.int64,
                )
                gen[irows] += 1
                top = int(gen[irows].max())
                if top >= n_gens:
                    grow = max(n_gens, top + 1 - n_gens)
                    inst = np.hstack((inst, np.full((n, grow), np.nan)))
                    rem = np.hstack((rem, np.full((n, grow), np.inf)))
                    n_gens += grow
                inst[irows, gen[irows]] = new_install[in_window]
                install[irows] = new_install[in_window]
                rep_slot.append(chain_slots[irows])
                rep_gen.append(gen[irows])
                rep_install.append(new_install[in_window])
                rep_serial.append(serials)
                infant[irows] = _infant_times(
                    streams,
                    chain_cohort[irows],
                    new_install[in_window],
                    config,
                    extra_rates,
                    window_end,
                )

    # Events cohort-major, each cohort's in round order.
    ev_cohort = joined(ev_cohort, np.int64)
    by_cohort = np.argsort(ev_cohort, kind="stable")
    return DiskChain(
        key=chain_key,
        cohort=chain_cohort,
        slots=chain_slots,
        slot_span=span,
        inst=inst,
        rem=rem,
        ev_cohort=ev_cohort[by_cohort],
        ev_slot=joined(ev_slot, np.int64)[by_cohort],
        ev_gen=joined(ev_gen, np.int64)[by_cohort],
        ev_occur=joined(ev_occur, np.float64)[by_cohort],
        ev_detect=joined(ev_detect, np.float64)[by_cohort],
        rep_slot=joined(rep_slot, np.int64),
        rep_gen=joined(rep_gen, np.int64),
        rep_install=joined(rep_install, np.float64),
        rep_serial=joined(rep_serial, np.uint64),
    )
