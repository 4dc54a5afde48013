"""Deterministic random-number management.

Every stochastic component in the library (mobility, fading, DRL, baselines)
takes either a seed or a :class:`numpy.random.Generator`. This module is the
single place that turns "seed or generator or None" into a generator, and it
provides named child streams so two subsystems seeded from one root do not
consume each other's randomness (a classic reproducibility bug in
simulations).
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "spawn_children"]

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
