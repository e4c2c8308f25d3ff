"""Cell partitioning: the unit of fleet sharding.

A **cell** is a fixed, content-addressed bucket of systems: every
system hashes (stable 64-bit FNV-1a over its ``system_id``) into one of
:data:`NUM_CELLS` cells, independent of fleet scale, enumeration order,
or how many shards a run asked for.  Shards are unions of whole cells —
``shard_of_cell`` maps cells onto ``n_shards`` contiguous ranges — so
the systems grouped together never depend on the shard count.

That invariance is what makes sharded runs *byte-identical* to
unsharded ones: the injector draws one stream per (cohort, cell) — see
:func:`repro.simulate.vector.cohorts.group_cohorts` — so as long as
every (cohort, cell) group lives entirely inside one shard, its batched
draws are the same arrays the unsharded run produces.

``NUM_CELLS`` is a model constant, not a knob: changing it changes
which systems share a vector batch and therefore every draw.
"""

from __future__ import annotations

#: Fixed number of hash cells systems partition into.  Effective shard
#: parallelism caps here; a run with more shards gets empty shards.
NUM_CELLS = 32


def fnv1a64(text: str) -> int:
    """Stable (non-``PYTHONHASHSEED``) 64-bit FNV-1a hash of ``text``.

    The same byte-for-byte recurrence :mod:`repro.rng` uses for stream
    key derivation, exposed for partitioning.
    """
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def cell_of(system_id: str) -> int:
    """The cell a system belongs to (content-addressed, scale-invariant)."""
    return fnv1a64(system_id) % NUM_CELLS


def shard_of_cell(cell: int, n_shards: int) -> int:
    """The shard a cell lands in when the run uses ``n_shards`` shards.

    Cells map onto contiguous shard ranges; with more shards than
    cells, the surplus shards are simply empty.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1, got %d" % n_shards)
    return min(cell * n_shards // NUM_CELLS, n_shards - 1)


def cells_of_shard(shard_index: int, n_shards: int) -> tuple:
    """All cells assigned to one shard (ascending)."""
    return tuple(
        cell
        for cell in range(NUM_CELLS)
        if shard_of_cell(cell, n_shards) == shard_index
    )


__all__ = ["NUM_CELLS", "cell_of", "cells_of_shard", "fnv1a64", "shard_of_cell"]
