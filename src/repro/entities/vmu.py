"""Vehicular Metaverse User (VMU) entity and population sampling.

A VMU is the economic follower in the Stackelberg game: it owns one VT of
size ``D_n`` and values migration freshness with immersion coefficient
``α_n``. Populations can be sampled from the paper's parameter ranges
(D_n ∈ [100, 300] MB, α_n ∈ [5, 20]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.units import megabytes_to_data_units
from repro.utils.validation import require_positive

__all__ = [
    "VmuProfile",
    "sample_population",
    "population_ranges",
    "population_columns",
    "paper_fig2_population",
    "uniform_population",
]


@dataclass(frozen=True)
class VmuProfile:
    """The game-relevant parameters of one VMU.

    Attributes:
        vmu_id: unique identifier.
        data_size_mb: VT data size ``D_n`` in megabytes.
        immersion_coef: immersion coefficient ``α_n`` (unit profit of
            immersion in ``G_n = α_n ln(1 + 1/A_n)``).
    """

    vmu_id: str
    data_size_mb: float
    immersion_coef: float

    def __post_init__(self) -> None:
        require_positive("data_size_mb", self.data_size_mb)
        require_positive("immersion_coef", self.immersion_coef)

    @property
    def data_units(self) -> float:
        """``D_n`` in the game's natural data units (100 MB each)."""
        return megabytes_to_data_units(self.data_size_mb, constants.DATA_UNIT_MB)


def population_ranges(
    data_range_mb: tuple[float, float] = constants.VT_DATA_SIZE_RANGE_MB,
    immersion_range: tuple[float, float] = constants.IMMERSION_COEF_RANGE,
) -> tuple[float, float, float, float]:
    """The sampling ranges as ``(low_D, span_D, low_α, span_α)``, checked.

    Raises:
        ConfigurationError: if a range has ``low > high``.
        OverflowError: if a span is not finite (``Generator.uniform``'s
            own range check, kept).
    """
    lo_d, hi_d = map(float, data_range_mb)
    lo_a, hi_a = map(float, immersion_range)
    if lo_d > hi_d or lo_a > hi_a:
        raise ConfigurationError(
            f"ranges must satisfy low <= high, got {data_range_mb} and "
            f"{immersion_range}"
        )
    span_d, span_a = hi_d - lo_d, hi_a - lo_a
    if not (math.isfinite(span_d) and math.isfinite(span_a)):
        raise OverflowError("Range exceeds valid bounds")
    return lo_d, span_d, lo_a, span_a


def population_columns(
    uniforms: np.ndarray, ranges: tuple[float, float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """``(data_sizes_mb, immersion_coefs)`` of the VMUs drawn from
    interleaved uniforms ``(u_D0, u_α0, u_D1, u_α1, …)``.

    ``low + span * u`` elementwise, each operation rounded once, so every
    entry has the bits of the scalar expression; ``uniforms`` may hold
    several populations back to back.
    """
    lo_d, span_d, lo_a, span_a = ranges
    return lo_d + span_d * uniforms[0::2], lo_a + span_a * uniforms[1::2]


def sample_population(
    count: int,
    *,
    seed: SeedLike = None,
    data_range_mb: tuple[float, float] = constants.VT_DATA_SIZE_RANGE_MB,
    immersion_range: tuple[float, float] = constants.IMMERSION_COEF_RANGE,
) -> list[VmuProfile]:
    """Sample ``count`` VMUs uniformly from the paper's parameter ranges.

    The whole population is one ``rng.random(2 * count)`` draw, mapped by
    :func:`population_columns`: the same doubles, in the same order
    (``D_0, α_0, D_1, α_1, …``), and the same arithmetic as ``2 * count``
    scalar ``rng.uniform`` calls, so both give the same bits and leave
    the generator in the same state.

    Raises:
        ConfigurationError: if ``count < 1`` or a range is inverted.
        OverflowError: if a range's span is not finite.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    ranges = population_ranges(data_range_mb, immersion_range)
    data_mb, alphas = population_columns(
        as_generator(seed).random(2 * count), ranges
    )
    return [
        VmuProfile(vmu_id=f"vmu-{i}", data_size_mb=d, immersion_coef=a)
        for i, (d, a) in enumerate(zip(data_mb.tolist(), alphas.tolist()))
    ]


def paper_fig2_population() -> list[VmuProfile]:
    """The two-VMU population of Fig. 2 / Fig. 3(a-b):
    α1 = α2 = 5, D1 = 200 MB, D2 = 100 MB."""
    return [
        VmuProfile(vmu_id="vmu-0", data_size_mb=200.0, immersion_coef=5.0),
        VmuProfile(vmu_id="vmu-1", data_size_mb=100.0, immersion_coef=5.0),
    ]


def uniform_population(
    count: int, *, data_size_mb: float = 100.0, immersion_coef: float = 5.0
) -> list[VmuProfile]:
    """``count`` identical VMUs — the Fig. 3(c-d) setting
    (D_n = 100 MB, α_n = 5).

    Raises:
        ConfigurationError: if ``count < 1``.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=data_size_mb,
            immersion_coef=immersion_coef,
        )
        for i in range(count)
    ]
