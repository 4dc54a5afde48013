"""RNG-management tests: determinism, stream independence, coercion."""

import numpy as np
import pytest

from repro.utils.rng import (
    _seed_sequence_words,
    as_generator,
    indexed_generators,
    spawn_children,
)


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


SEEDS = [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 3]
INDICES = [0, 1, 255, 65535]


class TestIndexedGenerators:
    """``indexed_generators`` against numpy's own seeding of
    ``default_rng([seed, i])``: the SeedSequence words, the PCG64 state
    and increment, and the draws."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        indices = np.array(INDICES + [2**32 - 1])
        words = _seed_sequence_words(seed, indices)
        assert words.dtype == np.uint64 and words.shape == (len(indices), 4)
        for row, index in zip(words, indices.tolist()):
            expected = np.random.SeedSequence([seed, index]).generate_state(
                4, np.uint64
            )
            assert row.tobytes() == expected.tobytes(), index

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_state_matches_default_rng(self, seed, index):
        (rng,) = indexed_generators(seed, index, index + 1)
        expected = np.random.default_rng([seed, index]).bit_generator.state
        # The whole state dict: the 128-bit state and inc, and the empty
        # uint32 buffer of a fresh generator.
        assert rng.bit_generator.state == expected

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "start, stop", [(95, 105), (9900, 10000), (2**32 - 3, 2**32)],
        ids=["mid-grid", "last-row", "top-of-range"],
    )
    def test_slices_draw_like_default_rng(self, seed, start, stop):
        got = [
            (rng.bit_generator.state, rng.integers(1, 7), rng.random(3),
             rng.poisson(400.0), rng.uniform(0.6, 1.0))
            for rng in indexed_generators(seed, start, stop)
        ]
        assert len(got) == stop - start
        for index, (state, count, uniforms, vehicles, factor) in zip(
            range(start, stop), got
        ):
            reference = np.random.default_rng([seed, index])
            assert state == reference.bit_generator.state, index
            assert count == reference.integers(1, 7)
            assert uniforms.tobytes() == reference.random(3).tobytes()
            assert vehicles == reference.poisson(400.0)
            assert factor == reference.uniform(0.6, 1.0)

    def test_empty_range_yields_nothing(self):
        assert list(indexed_generators(3, 7, 7)) == []

    @pytest.mark.parametrize(
        "seed, start, stop",
        [(-1, 0, 1), (0, -1, 1), (0, 5, 4), (0, 0, 2**32 + 1)],
        ids=["negative-seed", "negative-start", "reversed", "past-uint32"],
    )
    def test_rejects_what_it_cannot_key(self, seed, start, stop):
        with pytest.raises(ValueError):
            indexed_generators(seed, start, stop)
