"""Deterministic random-stream management.

Every stochastic component in the simulator draws from a named child
stream of a single root seed, so that (a) whole-fleet simulations are
reproducible from one integer, and (b) changing how many draws one
subsystem makes does not perturb the randomness any other subsystem sees.

The implementation uses :class:`numpy.random.Generator` seeded through
``SeedSequence.spawn``-style key derivation: a child stream is identified
by the root seed plus a tuple of string/int keys hashed into the seed
entropy.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

Key = Union[str, int]


def _key_entropy(keys: Iterable[Key]) -> Tuple[int, ...]:
    """Map a key path to a tuple of 32-bit integers for SeedSequence."""
    entropy = []
    for key in keys:
        if isinstance(key, int):
            entropy.append(key & 0xFFFFFFFF)
            entropy.append((key >> 32) & 0xFFFFFFFF)
        else:
            entropy.extend(_string_entropy(key))
    return tuple(entropy)


@functools.lru_cache(maxsize=4096)
def _string_entropy(key: str) -> Tuple[int, int]:
    """A stable (non-PYTHONHASHSEED) string hash: FNV-1a, 64-bit, split
    into two 32-bit words.  Stream keys reuse a few strings (model and
    class names) many times, hence the cache."""
    acc = 0xCBF29CE484222325
    for byte in key.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0xFFFFFFFF, (acc >> 32) & 0xFFFFFFFF


class RandomSource:
    """A root of deterministic, independently-keyed random streams.

    >>> src = RandomSource(seed=42)
    >>> a = src.stream("shocks", 7).random()
    >>> b = src.stream("shocks", 7).random()
    >>> a == b
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError("seed must be an integer, got %r" % (seed,))
        self.seed = int(seed)

    def stream(self, *keys: Key) -> np.random.Generator:
        """Return a fresh generator for the given key path.

        Calling twice with the same keys returns generators with identical
        output; distinct key paths give statistically independent streams.
        """
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=_key_entropy(keys)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def streams(self, *prefix: Key, indices: Iterable[int]) -> Iterator[np.random.Generator]:
        """``stream(*prefix, index)`` for each index, in order.

        The prefix is hashed once, which is most of a stream's set-up
        cost when a caller opens one stream per system of a fleet.
        """
        base = _key_entropy(prefix)
        for index in indices:
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=base + _key_entropy((index,))
            )
            yield np.random.Generator(np.random.PCG64(seq))

    def child(self, *keys: Key) -> "RandomSource":
        """Derive a namespaced child source (for handing to a subsystem)."""
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=_key_entropy(keys)
        )
        # Collapse the child sequence to a new integer seed.
        return RandomSource(int(seq.generate_state(1, np.uint64)[0]))

    def __repr__(self) -> str:
        return "RandomSource(seed=%d)" % self.seed
