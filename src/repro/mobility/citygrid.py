"""City-scale market generation: one migration market per RSU-grid junction.

The paper's migration scenarios play out on a city street grid: every
junction hosts an RSU, vehicles crossing a cell hand their VT over to the
next RSU, and each junction's handover stream is one bandwidth market.
:func:`city_markets` turns a :class:`CityGridSpec` into that market
population, and :func:`repro.mobility.demand.capacity_for_demand` sizes
each market's ``B_max`` from its migration rate.

The grid is regular, so :func:`city_markets` builds no road graph: the
junction geometry is analytic in the ``(row, col)`` index. Junction
``(r, c)`` sits at ``(c * block_m, r * block_m)``, its road neighbours are
the up-to-four in-grid junctions beside it, and one ``math.hypot`` of two
junction positions is both the road length to a neighbour and the
distance that decides whether the source RSU's coverage disc reaches it.

Determinism contract
--------------------
Market ``i`` is a pure function of ``(spec, i)``: every random draw uses
``np.random.default_rng([spec.seed, i])``, and the junction geometry is
derived from the grid parameters alone. Building markets ``[start, stop)``
therefore yields objects identical to the same index range of the full
build, at a cost of O(stop − start) — which is what lets scheduler jobs
and chunked solves construct only their own slice of a 10k-market city
from a payload of a dozen scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.channel.link import paper_link
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import sample_population
from repro.errors import ConfigurationError
from repro.mobility.demand import capacity_for_demand
from repro.utils.validation import require_positive

__all__ = ["CityGridSpec", "city_markets"]

_SOFT_HANDOVER_FACTOR = 0.5
"""Migration-rate multiplier when the neighbouring junction is still inside
the source RSU's coverage: overlapping cells resolve half their crossings
as soft handovers that keep the VT in place."""


@dataclass(frozen=True)
class CityGridSpec:
    """Parameters of a city-grid market population (payload-friendly).

    ``num_markets`` may truncate the ``rows × cols`` grid: markets are laid
    out junction-by-junction in row-major order, and only the first
    ``num_markets`` junctions trade.
    """

    num_markets: int
    rows: int
    cols: int
    block_m: float = 400.0
    coverage_radius_m: float | None = None
    speed_limit_mps: float = 13.9
    vehicles_per_cell: float = 400.0
    max_vmus: int = 6
    target_aotm: float = 0.05
    horizon_s: float = 3600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ConfigurationError(
                f"need a >= 2x2 grid, got {self.rows}x{self.cols}"
            )
        if not 1 <= self.num_markets <= self.rows * self.cols:
            raise ConfigurationError(
                f"num_markets must be in [1, rows*cols] = "
                f"[1, {self.rows * self.cols}], got {self.num_markets}"
            )
        if self.max_vmus < 1:
            raise ConfigurationError(
                f"max_vmus must be >= 1, got {self.max_vmus}"
            )
        for name in ("block_m", "speed_limit_mps", "vehicles_per_cell",
                     "target_aotm", "horizon_s"):
            require_positive(name, getattr(self, name))
        if self.coverage_radius_m is not None:
            require_positive("coverage_radius_m", self.coverage_radius_m)

    @classmethod
    def for_markets(
        cls,
        num_markets: int | None = None,
        *,
        rows: int | None = None,
        cols: int | None = None,
        **kwargs: Any,
    ) -> "CityGridSpec":
        """Build a spec from either a market count or an explicit shape.

        With only ``num_markets``, the grid is the smallest near-square
        ``rows × cols`` (each >= 2) holding that many junctions; with an
        explicit shape, ``num_markets`` defaults to the full grid.
        """
        if rows is None and cols is None:
            if num_markets is None:
                raise ConfigurationError(
                    "pass num_markets or an explicit rows x cols shape"
                )
            cols = max(2, math.ceil(math.sqrt(num_markets)))
            rows = max(2, math.ceil(num_markets / cols))
        elif rows is None or cols is None:
            raise ConfigurationError("pass both rows and cols, or neither")
        if num_markets is None:
            num_markets = rows * cols
        return cls(num_markets=num_markets, rows=rows, cols=cols, **kwargs)

    @property
    def coverage_radius(self) -> float:
        """Effective RSU coverage radius (default ¾ of a block, so cell
        crossings always exit coverage and force a hard migration)."""
        if self.coverage_radius_m is not None:
            return float(self.coverage_radius_m)
        return 0.75 * self.block_m

    def to_payload(self) -> dict[str, Any]:
        """A JSON-able dict that round-trips through :meth:`from_payload`."""
        return {
            "num_markets": self.num_markets,
            "rows": self.rows,
            "cols": self.cols,
            "block_m": self.block_m,
            "coverage_radius_m": self.coverage_radius_m,
            "speed_limit_mps": self.speed_limit_mps,
            "vehicles_per_cell": self.vehicles_per_cell,
            "max_vmus": self.max_vmus,
            "target_aotm": self.target_aotm,
            "horizon_s": self.horizon_s,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CityGridSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(**dict(payload))


def city_markets(
    spec: CityGridSpec, start: int = 0, stop: int | None = None
) -> list[StackelbergMarket]:
    """Markets ``[start, stop)`` of the city grid described by ``spec``.

    Per junction: the cell's vehicle stream (``vehicles_per_cell`` vehicles
    crossing at the speed limit) sets the handover rate towards the nearest
    road neighbour; crossings that exit the source RSU's coverage are hard
    VT migrations, soft handovers (neighbour still covered) migrate at half
    that rate. :func:`capacity_for_demand` sizes the market's ``B_max``
    from that rate at the junction link's actual spectral efficiency. The
    VMU population and per-cell congestion are drawn from the per-index
    generator (see the module docstring's determinism contract).

    The geometry is analytic: junction ``(r, c)`` sits at
    ``(float(c * block_m), float(r * block_m))`` and the road length is
    the least ``math.hypot`` of the position differences to the
    up-to-four in-grid junctions beside it. That same length decides
    coverage (the neighbour is covered when it is at most
    ``spec.coverage_radius`` away). No road graph is built, so a slice
    costs O(stop − start).
    """
    if stop is None:
        stop = spec.num_markets
    if not 0 <= start <= stop <= spec.num_markets:
        raise ConfigurationError(
            f"invalid market range [{start}, {stop}) for "
            f"{spec.num_markets} markets"
        )
    rows, cols, block_m = spec.rows, spec.cols, spec.block_m
    coverage_radius = spec.coverage_radius
    report_scale = MarketConfig().bandwidth_report_scale
    base_link = paper_link()
    markets: list[StackelbergMarket] = []
    for index in range(start, stop):
        row, col = divmod(index, cols)
        x, y = float(col * block_m), float(row * block_m)
        road_length = min(
            math.hypot(float(c * block_m) - x, float(r * block_m) - y)
            for r, c in ((row, col - 1), (row, col + 1),
                         (row - 1, col), (row + 1, col))
            if 0 <= r < rows and 0 <= c < cols
        )
        rng = np.random.default_rng([spec.seed, index])
        population = sample_population(
            int(rng.integers(1, spec.max_vmus + 1)), seed=rng
        )
        vehicles = 1 + int(rng.poisson(spec.vehicles_per_cell))
        # VTs migrate at the coverage boundary, somewhere along the road —
        # the RSU-to-RSU link distance is a per-cell fraction of the block.
        link = base_link.with_distance(road_length * float(rng.uniform(0.6, 1.0)))
        crossing_rate_hz = vehicles * spec.speed_limit_mps / road_length
        if road_length <= coverage_radius:  # neighbour inside RSU coverage
            crossing_rate_hz *= _SOFT_HANDOVER_FACTOR
        mean_data_units = float(
            np.mean([vmu.data_units for vmu in population])
        )
        capacity_natural = capacity_for_demand(
            crossing_rate_hz,
            mean_data_units=mean_data_units,
            target_aotm=spec.target_aotm,
            spectral_efficiency=link.spectral_efficiency,
        )
        config = MarketConfig(max_bandwidth=capacity_natural * report_scale)
        markets.append(
            StackelbergMarket(population, config=config, link=link)
        )
    return markets

