"""Reference draws for :func:`repro.utils.rng.indexed_draws`.

``generator_draws`` takes the draws of the city grid's recipe the plain
way, from one ``np.random.default_rng([seed, i])`` per index; the tests
pin the array form to it bit for bit, and the city bench times the array
form against it. ``ptrs_first_try`` replays the first try of numpy's
PTRS Poisson sampler (``random_poisson_ptrs``) from a generator's own
doubles, so a test can show which of the sampler's branches a spec's
lanes reach.
"""

import math
from typing import NamedTuple

import numpy as np

from repro.utils.rng import IndexedDraws


def generator_draws(seed, start, stop, max_count, lam, low, high):
    """The draws ``indexed_draws(seed, start, stop, max_count, lam, low,
    high)`` must equal, one generator per index."""
    counts, uniforms, poissons, factors = [], [], [], []
    for index in range(start, stop):
        rng = np.random.default_rng([seed, index])
        count = int(rng.integers(1, max_count + 1))
        counts.append(count)
        uniforms.append(rng.random(2 * count))
        poissons.append(int(rng.poisson(lam)))
        factors.append(float(rng.uniform(low, high)))
    return IndexedDraws(
        np.array(counts, dtype=np.int64),
        np.concatenate(uniforms) if uniforms else np.empty(0),
        np.array(poissons, dtype=np.int64),
        np.array(factors, dtype=np.float64),
    )


class PtrsTry(NamedTuple):
    """Where one PTRS try goes: ``fast`` accepts at once, ``retry``
    draws again at once, and otherwise the try takes the log test;
    ``k`` is the candidate, a float that may lie outside int64."""

    k: float
    fast: bool
    retry: bool


def ptrs_first_try(seed, index, max_count, lam):
    """The first PTRS try of index ``index``'s Poisson draw, replayed from
    ``default_rng([seed, index])``'s doubles after its count and
    uniforms (``lam >= 10``)."""
    rng = np.random.default_rng([seed, index])
    rng.random(2 * int(rng.integers(1, max_count + 1)))
    u = rng.random() - 0.5
    v = rng.random()
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2)
    us = 0.5 - abs(u)
    k = math.floor((2 * a / us + b) * u + lam + 0.43) if us else -math.inf
    return PtrsTry(
        k=float(k),
        fast=us >= 0.07 and v <= vr,
        retry=k < 0 or (us < 0.013 and v > us),
    )
