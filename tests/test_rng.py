"""Tests for deterministic random-stream management."""

import pickle

import numpy as np
import pytest

from repro.failures.backends import resolve as resolve_backend
from repro.failures.injector import InjectorConfig
from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource, seed_states
from repro.simulate.vector.cohorts import group_cohorts


class TestStreamDeterminism:
    def test_same_keys_same_stream(self):
        src = RandomSource(7)
        a = src.stream("x", 1).random(10)
        b = src.stream("x", 1).random(10)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        src = RandomSource(7)
        a = src.stream("x", 1).random(10)
        b = src.stream("x", 2).random(10)
        assert not np.array_equal(a, b)

    def test_different_string_keys_differ(self):
        src = RandomSource(7)
        a = src.stream("shocks").random(10)
        b = src.stream("inject").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).stream("x").random(10)
        b = RandomSource(2).stream("x").random(10)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        src = RandomSource(7)
        a = src.stream("a", "b").random(5)
        b = src.stream("b", "a").random(5)
        assert not np.array_equal(a, b)

    def test_mixed_key_types(self):
        src = RandomSource(7)
        # An int key and its string rendering must be distinct streams.
        a = src.stream(42).random(5)
        b = src.stream("42").random(5)
        assert not np.array_equal(a, b)

    def test_large_int_keys_supported(self):
        src = RandomSource(7)
        gen = src.stream(2**40 + 5)
        assert 0.0 <= gen.random() < 1.0


class TestChild:
    def test_child_is_deterministic(self):
        a = RandomSource(9).child("sub").stream("x").random(5)
        b = RandomSource(9).child("sub").stream("x").random(5)
        assert np.array_equal(a, b)

    def test_child_differs_from_parent(self):
        parent = RandomSource(9)
        child = parent.child("sub")
        assert child.seed != parent.seed

    def test_children_differ(self):
        parent = RandomSource(9)
        assert parent.child("a").seed != parent.child("b").seed


class TestValidation:
    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            RandomSource(1.5)  # type: ignore[arg-type]

    def test_repr_contains_seed(self):
        assert "123" in repr(RandomSource(123))

    def test_string_hash_is_stable(self):
        # The FNV hash must not depend on PYTHONHASHSEED: a fixed key
        # must map to a fixed first draw, forever.
        value = RandomSource(0).stream("stability-check").random()
        assert value == pytest.approx(0.844619118636685)


def _reference_state(seed, spawn_key):
    """numpy's own SeedSequence: what PCG64 reads from ``stream()``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(
        4, np.uint64
    )


#: 2**130 + 3 spans five entropy words, more than the 4-word pool.
SEEDS = [0, 1, 2**32 + 7, 2**130 + 3]


class TestBatchedSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", [0, 1, 2, 6, 12])
    def test_seed_states_equal_seed_sequence(self, seed, width):
        keys = (
            np.random.default_rng(width)
            .integers(0, 2**32, size=(9, width), dtype=np.uint64)
            .astype(np.uint32)
        )
        states = seed_states(seed, keys)
        assert states.shape == (9, 4)
        assert states.dtype == np.uint64
        for row, state in zip(keys.tolist(), states):
            np.testing.assert_array_equal(state, _reference_state(seed, tuple(row)))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "prefix", [(), ("fleet",), ("fleet", "nearline"), ("vector", "a", "b")]
    )
    @pytest.mark.parametrize(
        "indices",
        [
            [],
            range(4),
            # A shard's selection: sorted, with gaps.
            [2, 3, 9, 10, 41, 977],
            [2**32 - 1, 2**32, 2**32 + 5, 2**40 + 5],
        ],
    )
    def test_streams_equal_stream(self, seed, prefix, indices):
        src = RandomSource(seed)
        batched = list(src.streams(*prefix, indices=indices))
        assert len(batched) == len(indices)
        for index, rng in zip(indices, batched):
            single = src.stream(*prefix, index)
            assert rng.bit_generator.state == single.bit_generator.state
            np.testing.assert_array_equal(rng.random(3), single.random(3))
            assert rng.poisson(4.0) == single.poisson(4.0)
            np.testing.assert_array_equal(
                rng.integers(0, 2**32, size=5), single.integers(0, 2**32, size=5)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_of_equal_stream(self, seed):
        src = RandomSource(seed)
        paths = [("a", 1), ("b", 2**40), (3, "c"), ("a", 1), ("", 0)]
        batched = src.streams_of(paths)
        assert len(batched) == len(paths)
        for path, rng in zip(paths, batched):
            assert rng.bit_generator.state == src.stream(*path).bit_generator.state
        assert src.streams_of([]) == []

    def test_negative_seed_still_raises(self):
        src = RandomSource(-1)
        with pytest.raises(ValueError):
            src.stream("x", 1)
        with pytest.raises(ValueError):
            list(src.streams("x", indices=[1]))
        with pytest.raises(ValueError):
            src.streams_of([("x", 1)])

    def test_batched_generator_pickles(self):
        rng = next(RandomSource(3).streams("fleet", indices=[7]))
        rng.random(3)
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.bit_generator.state == rng.bit_generator.state
        np.testing.assert_array_equal(copy.random(5), rng.random(5))

    def test_cohort_streams_equal_per_cohort_stream(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(21))
        cohorts = group_cohorts(fleet, InjectorConfig(), resolve_backend())
        assert len(cohorts) > 1
        src = RandomSource(5)
        batched = cohorts.streams(src)
        # A second grouping has an empty stream cache, so each stream
        # comes from RandomSource.stream.
        single = group_cohorts(fleet, InjectorConfig(), resolve_backend())
        for index, rng in enumerate(batched):
            assert (
                rng.bit_generator.state == single.stream(index, src).bit_generator.state
            )
        # The per-source cache hands back the same generators.
        assert all(a is b for a, b in zip(cohorts.streams(src), batched))
        assert cohorts.stream(0, src) is batched[0]
