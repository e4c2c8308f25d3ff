"""The batched disk-replacement chain: per-bay event queues, advanced
in lock-step rounds.

Disk failures are the one place the legacy injector is genuinely
sequential: a bay's candidate only matters if it hits the disk
*currently* in the bay, and each failure installs a replacement whose
install time gates the next candidate.  The vector engine keeps that
semantics but advances **all bays of a cohort together**: each round
selects, per still-active bay, the earliest pending candidate (regular
or infant-mortality), applies detection/replacement draws as batched
vectors, and records the new disk generation.  The number of rounds is
the maximum replacement-chain depth over the cohort (almost always 1-2),
not the number of bays — which is what turns the per-unit loop into a
constant number of vector passes.

The resulting :class:`DiskChain` doubles as the cohort's occupancy
index: non-disk candidates resolve "which disk generation occupied bay
``b`` at time ``t``" against its install/remove matrices without
touching the fleet's lifetime table.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.failures.injector import InjectorConfig
from repro.simulate.vector.cohorts import Cohort

#: Initial generation capacity of the install/remove matrices; grown
#: geometrically for the rare bay that chews through more replacements.
_INITIAL_GENERATIONS = 4


@dataclasses.dataclass
class DiskChain:
    """Replacement history of a cohort's chained bays.

    Attributes:
        slots: global slot indices with chain state, ascending.
        inst: install time per (chained bay, generation); NaN where the
            generation never existed.  Generation 0 is the deploy-time
            disk.
        rem: remove (detection) time per (bay, generation); +inf while
            the disk was still in service at window end.
        ev_slot / ev_gen / ev_occur / ev_detect: one row per delivered
            disk failure, in round order.
        rep_slot / rep_gen / rep_install / rep_serial: one row per
            replacement disk that entered service.
    """

    slots: np.ndarray
    inst: np.ndarray
    rem: np.ndarray
    ev_slot: np.ndarray
    ev_gen: np.ndarray
    ev_occur: np.ndarray
    ev_detect: np.ndarray
    rep_slot: np.ndarray
    rep_gen: np.ndarray
    rep_install: np.ndarray
    rep_serial: np.ndarray

    def resolve_occupancy(
        self, slot: np.ndarray, time: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which disk occupied each (bay, time) query — vectorized.

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
        if n == 0 or self.slots.size == 0:
            return gen, remove, present
        pos = np.searchsorted(self.slots, slot)
        pos_clip = np.minimum(pos, self.slots.size - 1)
        chained = self.slots[pos_clip] == slot
        rows = np.flatnonzero(chained)
        if rows.size == 0:
            return gen, remove, present
        p = pos_clip[rows]
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
    rng: np.random.Generator,
    install: np.ndarray,
    config: InjectorConfig,
    disk_rate: float,
    window_end: float,
) -> np.ndarray:
    """Batched early-life failure candidates (inf = none in the period)."""
    factor = config.infant_mortality_factor
    if factor <= 1.0 or disk_rate <= 0.0 or install.size == 0:
        return np.full(install.size, np.inf)
    extra_rate = (factor - 1.0) * disk_rate
    times = install + rng.exponential(1.0 / extra_rate, size=install.size)
    cutoff = np.minimum(install + config.infant_period_seconds, window_end)
    return np.where(times < cutoff, times, np.inf)


def run_disk_chain(
    rng: np.random.Generator,
    cohort: Cohort,
    cand_slot: np.ndarray,
    cand_time: np.ndarray,
    config: InjectorConfig,
    disk_rate: float,
    window_end: float,
) -> DiskChain:
    """Advance every chained bay of a cohort through its disk failures.

    Semantics mirror the legacy per-bay walk exactly: candidates in time
    order per bay; candidates inside a replacement gap are consumed
    without effect; an infant-mortality candidate preempts a regular one
    only when strictly earlier; detection beyond the window ends the
    bay's chain with the disk surviving; a replacement beyond the window
    ends it with the bay empty.
    """
    infant_on = config.infant_mortality_factor > 1.0 and disk_rate > 0.0
    if infant_on:
        chain_slots = cohort.slots  # every bay has an infant candidate
    else:
        chain_slots = np.unique(cand_slot)
    n = int(chain_slots.shape[0])
    deploy = cohort.slot_deploy[np.searchsorted(cohort.slots, chain_slots)]

    # Per-bay candidate segments: lexsort by (bay, time) and index by
    # contiguous [seg_lo, seg_hi) ranges.
    bay_of = np.searchsorted(chain_slots, cand_slot)
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
    infant = _infant_times(rng, install, config, disk_rate, window_end)

    n_gens = _INITIAL_GENERATIONS
    inst = np.full((n, n_gens), np.nan)
    rem = np.full((n, n_gens), np.inf)
    if n:
        inst[:, 0] = deploy

    ev_slot, ev_gen, ev_occur, ev_detect = [], [], [], []
    rep_slot, rep_gen, rep_install, rep_serial = [], [], [], []

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

        detect = occur + rng.uniform(
            0.0, config.detection_lag_max_seconds, size=rows.size
        )
        observed = detect < window_end
        active[rows[~observed]] = False  # unobserved: the disk survives
        orows = rows[observed]
        if orows.size:
            o_detect = detect[observed]
            ev_slot.append(chain_slots[orows])
            ev_gen.append(gen[orows])
            ev_occur.append(occur[observed])
            ev_detect.append(o_detect)
            rem[orows, gen[orows]] = o_detect

            new_install = o_detect + rng.exponential(
                config.replacement_delay_mean_seconds, size=orows.size
            )
            in_window = new_install < window_end
            active[orows[~in_window]] = False  # bay stays empty
            irows = orows[in_window]
            if irows.size:
                serials = rng.integers(0, 2**32, size=irows.size)
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
                    rng, new_install[in_window], config, disk_rate, window_end
                )

    def _cat(parts, dtype):
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    return DiskChain(
        slots=chain_slots,
        inst=inst,
        rem=rem,
        ev_slot=_cat(ev_slot, np.int64),
        ev_gen=_cat(ev_gen, np.int64),
        ev_occur=_cat(ev_occur, np.float64),
        ev_detect=_cat(ev_detect, np.float64),
        rep_slot=_cat(rep_slot, np.int64),
        rep_gen=_cat(rep_gen, np.int64),
        rep_install=_cat(rep_install, np.float64),
        rep_serial=_cat(rep_serial, np.uint64),
    )
