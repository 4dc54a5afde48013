"""RNG-management tests: determinism, stream independence, coercion."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_children


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(42).uniform(size=5)
        b = as_generator(42).uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).uniform(size=5)
        b = as_generator(2).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        out = as_generator(seq)
        assert isinstance(out, np.random.Generator)


class TestSpawnChildren:
    def test_count(self):
        assert len(spawn_children(0, 5)) == 5

    def test_zero_children(self):
        assert spawn_children(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_children(0, -1)

    def test_children_reproducible(self):
        a = [g.uniform() for g in spawn_children(123, 3)]
        b = [g.uniform() for g in spawn_children(123, 3)]
        assert a == b

    def test_children_independent(self):
        children = spawn_children(123, 2)
        a = children[0].uniform(size=100)
        b = children[1].uniform(size=100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.5  # not identical streams

    def test_children_from_generator(self):
        gen = np.random.default_rng(9)
        kids = spawn_children(gen, 2)
        assert len(kids) == 2
