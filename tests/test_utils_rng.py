"""RNG-management tests: determinism, stream independence, coercion."""

import numpy as np
import pytest

from repro.utils import rng as rng_module
from repro.utils.rng import (
    POISSON_LAM_MAX,
    IndexedDraws,
    _PcgStreams,
    _seed_sequence_words,
    as_generator,
    indexed_draws,
    indexed_generators,
    spawn_children,
)
from rng_oracle import generator_draws, ptrs_first_try


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


class TestPcgStreams:
    """The raw PCG64 words of a block of ``default_rng([seed, i])``
    streams, against numpy's own ``random_raw``."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "start, stop", [(0, 4), (65534, 65537), (2**32 - 3, 2**32)],
        ids=["first", "mid-range", "top-of-range"],
    )
    def test_words_match_random_raw(self, seed, start, stop):
        size, words = stop - start, 40
        streams = _PcgStreams(seed, np.arange(start, stop))
        got = streams.words(
            np.repeat(np.arange(size), words), np.tile(np.arange(words), size)
        ).reshape(size, words)
        for row, index in zip(got, range(start, stop)):
            expected = np.random.default_rng(
                [seed, index]
            ).bit_generator.random_raw(words)
            assert row.tobytes() == expected.tobytes(), index
        # Any (lane, offset) order reads the same words.
        lanes = np.array([size - 1, 0, size - 1, 0])
        offsets = np.array([39, 39, 0, 7])
        assert streams.words(lanes, offsets).tolist() == [
            got[lane, offset] for lane, offset in zip(lanes, offsets)
        ]


def assert_draws_equal(got, expected):
    assert isinstance(got, IndexedDraws)
    for name, a, b in zip(IndexedDraws._fields, got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


DRAW_CASES = {
    "city": (6, 400.0),
    "one-count": (1, 400.0),
    "ptrs-boundary": (6, 10.0),
    "multiplication": (11, 9.5),
    "tiny-lam": (3, 0.01),
    "huge-lam": (2, 1e15),
}


class TestIndexedDraws:
    """``indexed_draws`` against one generator per index
    (``rng_oracle.generator_draws``), bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("case", DRAW_CASES)
    @pytest.mark.parametrize(
        "start, stop", [(95, 405), (2**32 - 3, 2**32)],
        ids=["mid-range", "top-of-range"],
    )
    def test_draws_match_the_generators(self, seed, case, start, stop):
        max_count, lam = DRAW_CASES[case]
        assert_draws_equal(
            indexed_draws(seed, start, stop, max_count, lam, 0.6, 1.0),
            generator_draws(seed, start, stop, max_count, lam, 0.6, 1.0),
        )

    def test_blocks_join_like_one_range(self):
        """A range longer than one block of lanes draws like the
        generators across the block boundary."""
        stop = rng_module._BLOCK_LANES + 300
        assert_draws_equal(
            indexed_draws(7, 0, stop, 6, 400.0, 0.6, 1.0),
            generator_draws(7, 0, stop, 6, 400.0, 0.6, 1.0),
        )

    def test_empty_range_draws_nothing(self):
        assert_draws_equal(
            indexed_draws(3, 7, 7, 6, 400.0, 0.6, 1.0),
            generator_draws(3, 7, 7, 6, 400.0, 0.6, 1.0),
        )

    def test_a_candidate_past_int64_takes_the_generator(self, monkeypatch):
        """At numpy's largest ``lam`` some PTRS candidates floor past
        2**63, where numpy's C cast decides the try. Those lanes are drawn
        by their own generators, and every lane still matches."""
        seed, stop = 3, 1500
        wild = [
            index for index in range(stop)
            if ptrs_first_try(seed, index, 6, POISSON_LAM_MAX).k >= 2.0**63
        ]
        assert wild
        redrawn = spy_on_indexed_generators(monkeypatch)
        assert_draws_equal(
            indexed_draws(seed, 0, stop, 6, POISSON_LAM_MAX, 0.6, 1.0),
            generator_draws(seed, 0, stop, 6, POISSON_LAM_MAX, 0.6, 1.0),
        )
        assert set(wild) <= set(redrawn)

    def test_a_lemire_rejection_takes_the_generator(self, monkeypatch):
        """A count word that Lemire's method rejects makes numpy draw
        again. Real rejections come about once in 1e9 lanes, so every
        third lane's count word is forged to a low half of 0, which is a
        rejection for ``max_count = 6``: those lanes are drawn by their
        own generators, and every lane still matches the real draws."""
        words = _PcgStreams.words

        def forged(self, lanes, offsets):
            out = words(self, lanes, offsets)
            out[(offsets == 0) & (lanes % 3 == 0)] &= ~np.uint64(0xFFFFFFFF)
            return out

        monkeypatch.setattr(_PcgStreams, "words", forged)
        redrawn = spy_on_indexed_generators(monkeypatch)
        assert_draws_equal(
            indexed_draws(5, 10, 60, 6, 400.0, 0.6, 1.0),
            generator_draws(5, 10, 60, 6, 400.0, 0.6, 1.0),
        )
        assert redrawn == list(range(10, 60, 3))

    def test_the_array_form_finishes_a_city(self, monkeypatch):
        redrawn = spy_on_indexed_generators(monkeypatch)
        indexed_draws(0, 0, 10000, 6, 400.0, 0.6, 1.0)
        assert redrawn == []

    @pytest.mark.parametrize(
        "seed, start, stop, max_count, lam",
        [(-1, 0, 1, 6, 400.0), (0, 5, 4, 6, 400.0), (0, 0, 2**32 + 1, 6, 400.0),
         (0, 0, 1, 0, 400.0), (0, 0, 1, 6, 0.0), (0, 0, 1, 6, float("nan")),
         (0, 0, 1, 6, float(np.nextafter(POISSON_LAM_MAX, np.inf)))],
        ids=["negative-seed", "reversed", "past-uint32", "no-count", "zero-lam",
             "nan-lam", "past-poisson-limit"],
    )
    def test_rejects_what_numpy_would(self, seed, start, stop, max_count, lam):
        with pytest.raises(ValueError):
            indexed_draws(seed, start, stop, max_count, lam, 0.6, 1.0)


def spy_on_indexed_generators(monkeypatch):
    """Record the index of every generator ``indexed_draws`` falls back to."""
    indices = []
    real = rng_module.indexed_generators

    def spy(seed, start, stop):
        indices.extend(range(start, stop))
        return real(seed, start, stop)

    monkeypatch.setattr(rng_module, "indexed_generators", spy)
    return indices
