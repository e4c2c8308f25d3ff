"""Deterministic random-stream management.

Every stochastic component in the simulator draws from a named child
stream of a single root seed, so that (a) whole-fleet simulations are
reproducible from one integer, and (b) changing how many draws one
subsystem makes does not perturb the randomness any other subsystem sees.

The implementation uses :class:`numpy.random.Generator` seeded through
``SeedSequence.spawn``-style key derivation: a child stream is identified
by the root seed plus a tuple of string/int keys hashed into the seed
entropy.

Opening one stream per system of a fleet (or per cohort of an
injection) is dominated by seeding, not drawing: numpy's
``SeedSequence`` mixes its entropy in Python-level loops, ~20 us a
stream.  :meth:`RandomSource.streams` and :meth:`RandomSource.streams_of`
therefore seed many key paths at once with :func:`seed_states`, the
same mixing run over a (paths x entropy words) matrix, and hand each
``PCG64`` its precomputed words.  The streams are byte-identical to
:meth:`RandomSource.stream`, which keeps numpy's own ``SeedSequence``
as the reference the tests compare against.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

Key = Union[str, int]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: uint64 words a PCG64 reads from its seed sequence.
_PCG64_WORDS = 4


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


def _int_words(value: int) -> List[int]:
    """A non-negative integer as little-endian 32-bit words (0 -> [0])."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _Hash:
    """SeedSequence's multiplicative hash, one column of paths at a time.

    The hash constant advances per call, never per path, so every row
    of a column sees the same constant.
    """

    def __init__(self, const: int, mult: int) -> None:
        self.const = const
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def seed_states(seed: int, spawn_keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=row).generate_state(4, np.uint64)``
    for every row of ``spawn_keys``, in one vectorized pass.

    A transliteration of numpy's ``SeedSequence`` entropy mixing (its
    4-word pool, ``hashmix`` and ``mix``) and ``generate_state``, with
    each scalar word replaced by a column of uint32 words, one per
    path; uint32 array arithmetic wraps exactly as the C code does.

    Args:
        seed: the root entropy, a non-negative integer of any size.
        spawn_keys: 2-D, one row of 32-bit spawn-key words per path.

    Returns:
        (paths x 4) uint64: the words ``PCG64`` seeds itself from.

    Raises:
        ValueError: a negative seed, as ``SeedSequence`` raises.
    """
    spawn_keys = np.asarray(spawn_keys, dtype=np.uint32)
    rows, width = spawn_keys.shape
    run = _int_words(seed)
    if width and len(run) < _POOL_SIZE:
        # SeedSequence pads spawned entropy to the pool size.
        run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(rows, word, dtype=np.uint32) for word in run]
    entropy += list(spawn_keys.T)
    hashmix = _Hash(_INIT_A, _MULT_A)
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zeros)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    generate = _Hash(_INIT_B, _MULT_B)
    words = np.empty((rows, 2 * _PCG64_WORDS), dtype="<u4")
    for column in range(2 * _PCG64_WORDS):
        words[:, column] = generate(pool[column % _POOL_SIZE])
    return words.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Precomputed ``generate_state`` output: all a ``PCG64`` reads."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if np.dtype(dtype) != np.uint64 or n_words > self.state.size:
            raise ValueError(
                "precomputed seed holds %d uint64 words" % self.state.size
            )
        return self.state[:n_words]


def _generator(state: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(state)))


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

        Every stream is seeded up front in one :func:`seed_states` pass
        — the prefix hashed once, the indices as two columns of words —
        and its generator is built when the iterator reaches it.
        """
        values = np.array(
            [int(index) & _MASK64 for index in indices], dtype=np.uint64
        )
        base = _key_entropy(prefix)
        keys = np.empty((values.size, len(base) + 2), dtype=np.uint32)
        keys[:, : len(base)] = base
        keys[:, -2] = values & np.uint64(_MASK32)
        keys[:, -1] = values >> np.uint64(32)
        return map(_generator, seed_states(self.seed, keys))

    def streams_of(self, paths: Iterable[Sequence[Key]]) -> List[np.random.Generator]:
        """``stream(*path)`` for each key path, in order, seeded in one
        :func:`seed_states` pass.  Every path has the same number of
        keys (each key is two entropy words, string or int)."""
        entropies = [_key_entropy(path) for path in paths]
        if not entropies:
            return []
        keys = np.array(entropies, dtype=np.uint32)
        return [_generator(state) for state in seed_states(self.seed, keys)]

    def child(self, *keys: Key) -> "RandomSource":
        """Derive a namespaced child source (for handing to a subsystem)."""
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=_key_entropy(keys)
        )
        # Collapse the child sequence to a new integer seed.
        return RandomSource(int(seq.generate_state(1, np.uint64)[0]))

    def __repr__(self) -> str:
        return "RandomSource(seed=%d)" % self.seed
