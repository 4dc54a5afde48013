"""Deterministic random-number management.

Every stochastic component in the library (mobility, fading, DRL, baselines)
takes either a seed or a :class:`numpy.random.Generator`. This module is the
single place that turns "seed or generator or None" into a generator, and it
provides named child streams so two subsystems seeded from one root do not
consume each other's randomness (a classic reproducibility bug in
simulations). :func:`indexed_generators` seeds a whole index range of
``default_rng([seed, i])`` generators in one array pass.

:func:`indexed_draws` goes one step further for the city grid's fixed
draw recipe: it computes every index's draws from the raw PCG64 streams
of a whole block of indices as array arithmetic, with no generator per
index. It replicates numpy's own algorithms (``numpy/random/src``):

- PCG64's 128-bit LCG step and XSL-RR output (``pcg64.h``), on uint64
  halves and 32-bit limbs;
- ``integers`` by Lemire's method over ``next_uint32``, the low half of
  a raw word (``buffered_bounded_lemire_uint32``);
- ``random`` and ``uniform`` from ``next_double``, ``(word >> 11) *
  2**-53``;
- ``poisson`` by the multiplication method below ``lam = 10`` and by
  PTRS with ``random_loggam`` from 10 up, with libm logs
  (:func:`math.log`), not ``np.log``.

Nothing here is pinned by numpy's documentation: the tests in
``tests/test_utils_rng.py`` and ``tests/test_mobility_citygrid.py``,
which compare every draw with a :class:`~numpy.random.Generator`'s, are
what pin them to the installed numpy.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "POISSON_LAM_MAX",
    "IndexedDraws",
    "as_generator",
    "indexed_draws",
    "indexed_generators",
    "spawn_children",
]

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
_MASK64 = (1 << 64) - 1
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
    _check_slice(seed, start, stop)
    words = _seed_sequence_words(seed, np.arange(start, stop)).tolist()
    return _reseeded(np.random.Generator(np.random.PCG64(0)), words)


def _check_slice(seed: int, start: int, stop: int) -> None:
    """Reject a seed or index range the uint32 index keying cannot take."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(
            f"need 0 <= start <= stop <= 2**32, got [{start}, {stop})"
        )


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


POISSON_LAM_MAX = float(
    np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
)
"""The largest ``lam`` :meth:`numpy.random.Generator.poisson` accepts
(numpy's own ``POISSON_LAM_MAX``, ~9.22e18)."""

_BLOCK_LANES = 2048
"""Indices drawn together by :func:`indexed_draws`: the scratch of one
block is a few MB whatever the slice length."""
_LOW32 = np.uint64(_MASK32)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53, as next_double scales
# random_loggam's Stirling-series coefficients, a[0] .. a[9].
_LOGGAM_COEFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)
_LOG_2PI = 1.8378770664093453e00
_INT64_BOUND = 2.0**63


class IndexedDraws(NamedTuple):
    """The draws :func:`indexed_draws` takes for each index, in index
    order; ``uniforms`` concatenates each index's ``2 * count`` doubles."""

    counts: np.ndarray
    uniforms: np.ndarray
    poissons: np.ndarray
    factors: np.ndarray


def indexed_draws(
    seed: int,
    start: int,
    stop: int,
    max_count: int,
    lam: float,
    low: float,
    high: float,
) -> IndexedDraws:
    """For each ``i`` in ``range(start, stop)``, the draws ::

        rng = np.random.default_rng([seed, i])
        count = rng.integers(1, max_count + 1)
        uniforms = rng.random(2 * count)
        poisson = rng.poisson(lam)
        factor = rng.uniform(low, high)

    bit for bit, computed from each index's raw PCG64 stream in
    whole-block array passes (:class:`_PcgStreams`) instead of one
    :class:`~numpy.random.Generator` per index. An index whose draws the
    array form cannot finish (a Lemire rejection, a count range wider
    than 32 bits, a Poisson candidate outside int64) is drawn through
    :func:`indexed_generators` instead, which gives the same values.

    ``lam`` must be in ``(0, POISSON_LAM_MAX]`` and ``max_count >= 1``;
    the index range is :func:`indexed_generators`' (``stop <= 2**32``).
    """
    _check_slice(seed, start, stop)
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    if not 0.0 < lam <= POISSON_LAM_MAX:
        raise ValueError(
            f"lam must be in (0, {POISSON_LAM_MAX!r}], got {lam!r}"
        )
    blocks = [
        _draw_block(
            seed, np.arange(lo, min(lo + _BLOCK_LANES, stop)),
            max_count, lam, low, high,
        )
        for lo in range(start, stop, _BLOCK_LANES)
    ]
    if not blocks:
        return IndexedDraws(
            np.empty(0, dtype=np.int64), np.empty(0),
            np.empty(0, dtype=np.int64), np.empty(0),
        )
    return IndexedDraws(*(np.concatenate(parts) for parts in zip(*blocks)))


class _PcgStreams:
    """The raw output streams of ``default_rng([seed, i])``'s PCG64 for a
    block of indices, readable at any word offset.

    PCG64 (numpy's ``pcg64.h``) steps a 128-bit LCG, ``state = state *
    MULT + inc``, and then outputs XSL-RR of the new state: the two 64-bit
    halves xor-ed and rotated right by the state's top six bits. Seeding
    (see :func:`indexed_generators`) is one step from ``s + inc``, so
    raw word ``k`` is XSL-RR of ``MULT**(k+2) * (s + inc) + (1 + MULT +
    ... + MULT**(k+1)) * inc``: each lane jumps straight to any offset
    with two 128-bit products, in uint64 halves whose high words come from
    32-bit limbs.
    """

    def __init__(self, seed: int, indices: np.ndarray) -> None:
        s_hi, s_lo, seq_hi, seq_lo = _seed_sequence_words(seed, indices).T
        inc_hi = (seq_hi << 1) | (seq_lo >> 63)
        inc_lo = (seq_lo << 1) | 1
        base_lo = inc_lo + s_lo
        base_hi = inc_hi + s_hi + (base_lo < s_lo)
        self._lanes = _limbs(base_hi, base_lo, inc_hi, inc_lo)
        self._jumps = np.empty((8, 0), dtype=np.uint64)

    def _grow(self, size: int) -> None:
        """Jump constants for word offsets ``0 .. size - 1``."""
        power, total = _PCG64_MULT * _PCG64_MULT & _MASK128, 1 + _PCG64_MULT
        rows = []
        for _ in range(size):
            rows.append((power >> 64, power & _MASK64,
                         total >> 64, total & _MASK64))
            power = power * _PCG64_MULT & _MASK128
            total = (total * _PCG64_MULT + 1) & _MASK128
        self._jumps = _limbs(*np.array(rows, dtype=np.uint64).T)

    def words(self, lanes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Raw word ``offsets[j]`` of lane ``lanes[j]``'s stream: what
        ``bit_generator.random_raw`` returns at that position."""
        if offsets.size and offsets.max() >= self._jumps.shape[1]:
            self._grow(max(2 * self._jumps.shape[1], int(offsets.max()) + 1))
        b_hi, b_lo, b_lo0, b_lo1, i_hi, i_lo, i_lo0, i_lo1 = (
            self._lanes.take(lanes, axis=1)
        )
        a_hi, a_lo, a_lo0, a_lo1, c_hi, c_lo, c_lo0, c_lo1 = (
            self._jumps.take(offsets, axis=1)
        )
        p_lo = a_lo * b_lo
        p_hi = _mulhi(a_lo0, a_lo1, b_lo0, b_lo1) + a_lo * b_hi + a_hi * b_lo
        q_lo = c_lo * i_lo
        q_hi = _mulhi(c_lo0, c_lo1, i_lo0, i_lo1) + c_lo * i_hi + c_hi * i_lo
        lo = p_lo + q_lo
        hi = p_hi + q_hi + (lo < p_lo)
        mixed = hi ^ lo
        rotate = hi >> 58
        return (mixed >> rotate) | (mixed << ((64 - rotate) & 63))

    def doubles(self, lanes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """``next_double`` of those words: the top 53 bits times 2**-53."""
        return (self.words(lanes, offsets) >> 11).astype(np.float64) * (
            _DOUBLE_UNIT
        )


def _limbs(
    hi_a: np.ndarray, lo_a: np.ndarray, hi_b: np.ndarray, lo_b: np.ndarray
) -> np.ndarray:
    """Two 128-bit columns as one ``(8, n)`` block: each as its high
    half, its low half, and the low half's low and high 32 bits."""
    return np.stack([
        hi_a, lo_a, lo_a & _LOW32, lo_a >> 32,
        hi_b, lo_b, lo_b & _LOW32, lo_b >> 32,
    ])


def _mulhi(
    x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray
) -> np.ndarray:
    """The high 64 bits of ``x * y`` from their 32-bit limbs."""
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    middle = (p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32)


def _draw_block(
    seed: int,
    indices: np.ndarray,
    max_count: int,
    lam: float,
    low: float,
    high: float,
) -> IndexedDraws:
    """:func:`indexed_draws` over one block of indices."""
    streams = _PcgStreams(seed, indices)
    size = indices.shape[0]
    cursor = np.zeros(size, dtype=np.int64)
    span = max_count - 1
    if span == 0:
        # integers(1, 2) has one value and draws no word.
        counts = np.ones(size, dtype=np.int64)
        rejected = np.zeros(size, dtype=bool)
    elif span < _MASK32:
        # Lemire's method on next_uint32, the low half of word 0 (numpy's
        # buffered_bounded_lemire_uint32): the count is the high word of
        # ``u32 * (span + 1)``, unless the low word falls under the
        # rejection threshold and numpy draws again.
        scaled = (streams.words(np.arange(size), cursor) & _LOW32) * np.uint64(
            span + 1
        )
        counts = (scaled >> 32).astype(np.int64) + 1
        rejected = (scaled & _LOW32) < np.uint64((_MASK32 - span) % (span + 1))
        cursor += 1
    else:
        # Wider ranges take numpy's 64-bit paths: every lane falls back.
        counts = np.zeros(size, dtype=np.int64)
        rejected = np.ones(size, dtype=bool)
    counts[rejected] = 0
    live = np.flatnonzero(~rejected)

    widths = 2 * counts
    firsts = np.cumsum(widths) - widths
    owners = np.repeat(np.arange(size), widths)
    uniforms = streams.doubles(
        owners, cursor[owners] + np.arange(owners.shape[0]) - firsts[owners]
    )
    cursor += widths

    poissons = np.zeros(size, dtype=np.int64)
    failed = np.zeros(size, dtype=bool)
    if lam >= 10.0:
        _poisson_ptrs(streams, live, cursor, lam, poissons, failed)
    else:
        _poisson_mult(streams, live, cursor, lam, poissons)
    factors = np.zeros(size)
    factors[live] = low + (high - low) * streams.doubles(live, cursor[live])

    fallback = np.flatnonzero(rejected | failed)
    if fallback.size:
        # Rare: these lanes take their own generators, which draw the
        # same values the array form would have.
        pieces = np.split(uniforms, firsts[1:])
        for lane in fallback.tolist():
            index = int(indices[lane])
            (rng,) = indexed_generators(seed, index, index + 1)
            counts[lane] = rng.integers(1, max_count + 1)
            pieces[lane] = rng.random(2 * counts[lane])
            poissons[lane] = rng.poisson(lam)
            factors[lane] = rng.uniform(low, high)
        uniforms = np.concatenate(pieces)
    return IndexedDraws(counts, uniforms, poissons, factors)


def _poisson_ptrs(
    streams: _PcgStreams,
    lanes: np.ndarray,
    cursor: np.ndarray,
    lam: float,
    out: np.ndarray,
    failed: np.ndarray,
) -> None:
    """numpy's ``random_poisson_ptrs`` (Hörmann's PTRS, ``lam >= 10``)
    for every lane of ``lanes`` at once: each round takes two doubles per
    pending lane, accepts the fast test's lanes in one array pass, and
    runs the log test of the rest with libm logs. Lanes still pending take
    another round from their own streams."""
    slam = math.sqrt(lam)
    loglam = math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    pending = lanes
    while pending.size:
        at = cursor[pending]
        pair = streams.doubles(
            np.concatenate([pending, pending]), np.concatenate([at, at + 1])
        )
        cursor[pending] += 2
        u = pair[: pending.size] - 0.5
        v = pair[pending.size:]
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore"):  # us == 0 sends k to -inf
            k = np.floor((2 * a / us + b) * u + lam + 0.43)
        # A candidate with no int64 value is left to the Generator, whose
        # C cast decides it.
        wild = ~((k >= -_INT64_BOUND) & (k < _INT64_BOUND))
        accept = (us >= 0.07) & (v <= vr)
        test = ~(accept | wild | (k < 0) | ((us < 0.013) & (v > us)))
        if test.any():
            ut, vt, kt = us[test], v[test], k[test]
            accept[test] = (
                _libm_log(vt) + log_invalpha - _libm_log(a / (ut * ut) + b)
            ) <= (-lam + kt * loglam - _loggam(kt + 1.0))
        done = accept & ~wild
        out[pending[done]] = k[done].astype(np.int64)
        failed[pending[wild]] = True
        pending = pending[~(done | wild)]


def _poisson_mult(
    streams: _PcgStreams,
    lanes: np.ndarray,
    cursor: np.ndarray,
    lam: float,
    out: np.ndarray,
) -> None:
    """numpy's ``random_poisson_mult`` (``lam < 10``) for every lane of
    ``lanes``: the count of doubles whose running product stays above
    ``exp(-lam)``, one double per pending lane per round."""
    enlam = math.exp(-lam)
    product = np.ones(lanes.shape[0])
    pending = np.arange(lanes.shape[0])
    while pending.size:
        who = lanes[pending]
        product[pending] *= streams.doubles(who, cursor[who])
        cursor[who] += 1
        more = product[pending] > enlam
        out[who[more]] += 1
        pending = pending[more]


def _libm_log(values: np.ndarray) -> np.ndarray:
    """C's ``log`` elementwise, through :func:`math.log` (``np.log``'s
    SIMD loops need not round like libm); ``log(0)`` is ``-inf``."""
    return np.array(
        [math.log(x) if x else -math.inf for x in values.tolist()],
        dtype=np.float64,
    )


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's ``random_loggam`` over an array of ``x >= 1``: a Stirling
    series at ``x0 = x + n`` (``n = int(7 - x)`` below 7), less
    ``log(x0 - 1) .. log(x)`` for the ``n`` shifted steps."""
    shift = np.where(x < 7.0, np.trunc(7.0 - x), 0.0)
    x0 = x + shift
    inverse = 1.0 / x0
    x2 = inverse * inverse
    series = np.full(x.shape, _LOGGAM_COEFS[9])
    for coef in _LOGGAM_COEFS[8::-1]:
        series *= x2
        series += coef
    gl = series / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * _libm_log(x0) - x0
    for step in range(1, 7):
        steps = shift >= step
        if not steps.any():
            break
        gl[steps] -= _libm_log(x0[steps] - 1.0)
        x0[steps] -= 1.0
    return np.where((x == 1.0) | (x == 2.0), 0.0, gl)
