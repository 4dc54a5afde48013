"""Vehicular Metaverse User (VMU) entity and population sampling.

A VMU is the economic follower in the Stackelberg game: it owns one VT of
size ``D_n`` and values migration freshness with immersion coefficient
``α_n``. Populations can be sampled from the paper's parameter ranges
(D_n ∈ [100, 300] MB, α_n ∈ [5, 20]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import constants
from repro.utils.rng import SeedLike, as_generator
from repro.utils.units import megabytes_to_data_units
from repro.utils.validation import require_positive

__all__ = ["VmuProfile", "sample_population", "paper_fig2_population", "uniform_population"]


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


def sample_population(
    count: int,
    *,
    seed: SeedLike = None,
    data_range_mb: tuple[float, float] = constants.VT_DATA_SIZE_RANGE_MB,
    immersion_range: tuple[float, float] = constants.IMMERSION_COEF_RANGE,
) -> list[VmuProfile]:
    """Sample ``count`` VMUs uniformly from the paper's parameter ranges.

    The whole population is one ``rng.random(2 * count)`` draw, mapped by
    ``low + (high - low) * u``: the same doubles, in the same order
    (``D_0, α_0, D_1, α_1, …``), and the same arithmetic as ``2 * count``
    scalar ``rng.uniform`` calls, so both give the same bits and leave
    the generator in the same state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    lo_d, hi_d = map(float, data_range_mb)
    lo_a, hi_a = map(float, immersion_range)
    if lo_d > hi_d or lo_a > hi_a:
        raise ValueError("ranges must satisfy low <= high")
    span_d, span_a = hi_d - lo_d, hi_a - lo_a
    # Generator.uniform's own range check, kept: inf/NaN bounds overflow.
    if not (math.isfinite(span_d) and math.isfinite(span_a)):
        raise OverflowError("Range exceeds valid bounds")
    u = as_generator(seed).random(2 * count).tolist()
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=lo_d + span_d * u[2 * i],
            immersion_coef=lo_a + span_a * u[2 * i + 1],
        )
        for i in range(count)
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
    (D_n = 100 MB, α_n = 5)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=data_size_mb,
            immersion_coef=immersion_coef,
        )
        for i in range(count)
    ]
