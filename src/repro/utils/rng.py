"""Deterministic random-number management.

Every stochastic component in the library (mobility, fading, DRL, baselines)
takes either a seed or a :class:`numpy.random.Generator`. This module is the
single place that turns "seed or generator or None" into a generator, and it
provides named child streams so two subsystems seeded from one root do not
consume each other's randomness (a classic reproducibility bug in
simulations). :func:`indexed_generators` seeds a whole index range of
``default_rng([seed, i])`` generators in one array pass.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["as_generator", "indexed_generators", "spawn_children"]

SeedLike = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce a seed-like value into a :class:`numpy.random.Generator`.

    - ``None`` -> fresh nondeterministic generator;
    - ``int`` / ``SeedSequence`` -> seeded PCG64 generator;
    - ``Generator`` -> returned unchanged (shared stream by design).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_children(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Children are derived through :class:`numpy.random.SeedSequence` spawning,
    so they are reproducible given the root seed and independent of how many
    draws each sibling performs.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own stream so that the
        # children are reproducible relative to the generator state.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, mixed and then expanded by multiply-xorshift hashes
# whose constants run independently of the data.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence keys an int: little-endian uint32 words,
    one word for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_sequence_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for every
    ``i`` of the integer array ``indices``, as one ``(n, 4)`` uint64 array.

    Each index is one entropy word, so ``indices`` must hold values in
    ``[0, 2**32)``. Every step is elementwise uint32 arithmetic (which wraps
    like the C hash); only the hash constants advance per step, the same
    for every index.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(_XSHIFT))

    zeros = np.zeros(indices.shape, dtype=np.uint32)
    entropy = [zeros + np.uint32(word) for word in _uint32_words(seed)]
    entropy.append(indices.astype(np.uint32))
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zeros)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty(indices.shape + (2 * _POOL_SIZE,), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(_XSHIFT))
    # Pairs of words are little-endian uint64s, as generate_state reads them.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def indexed_generators(
    seed: int, start: int, stop: int
) -> Iterator[np.random.Generator]:
    """For each ``i`` in ``range(start, stop)``, a generator in the state
    ``np.random.default_rng([seed, i])`` starts in.

    One :class:`~numpy.random.Generator` is re-seeded and yielded for
    every index, so take its draws before advancing the iterator. The
    SeedSequence hash runs once over the whole index range as array
    arithmetic (:func:`_seed_sequence_words`); PCG64's set-seed then runs
    in Python ints: with ``s`` and ``initseq`` the first and second
    128-bit halves of the hashed words, ``inc = (initseq << 1) | 1`` and
    ``state = ((inc + s) * MULT + inc) mod 2**128``, loaded through
    ``bit_generator.state``.

    Indices are keyed as one uint32 word each, so ``stop`` may not exceed
    ``2**32``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(
            f"need 0 <= start <= stop <= 2**32, got [{start}, {stop})"
        )
    words = _seed_sequence_words(seed, np.arange(start, stop)).tolist()
    return _reseeded(np.random.Generator(np.random.PCG64(0)), words)


def _reseeded(
    rng: np.random.Generator, words: list[list[int]]
) -> Iterator[np.random.Generator]:
    """Yield ``rng`` PCG64-seeded from each row of hashed ``words``."""
    pcg_state = {"state": 0, "inc": 1}
    state = {
        "bit_generator": "PCG64",
        "state": pcg_state,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for s_high, s_low, seq_high, seq_low in words:
        inc = (((seq_high << 64 | seq_low) << 1) | 1) & _MASK128
        pcg_state["inc"] = inc
        pcg_state["state"] = (
            (inc + (s_high << 64 | s_low)) * _PCG64_MULT + inc
        ) & _MASK128
        rng.bit_generator.state = state
        yield rng
