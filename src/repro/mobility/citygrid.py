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
junction positions is both the road length
(:meth:`repro.mobility.road.RoadNetwork.distance`) and the coverage
distance (:meth:`repro.entities.rsu.RoadsideUnit.covers`) — the values the
graph view gives, bit for bit. :func:`city_coverage` is that graph view:
the :func:`repro.mobility.road.grid_city` network with one
:class:`~repro.entities.rsu.RoadsideUnit` per junction, for diagnostics.

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
from repro.entities.rsu import RoadsideUnit
from repro.entities.vmu import sample_population
from repro.errors import ConfigurationError
from repro.mobility.coverage import CoverageMap
from repro.mobility.demand import DemandProfile, capacity_for_demand
from repro.mobility.road import RoadNetwork, grid_city
from repro.utils.validation import require_positive

__all__ = ["CityGridSpec", "city_markets", "city_coverage"]

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
    that rate. The rate becomes a :class:`DemandProfile` whose
    :func:`capacity_for_demand` sizing — at the junction link's actual
    spectral efficiency — sets the market's ``B_max``. The VMU population
    and per-cell congestion are drawn from the per-index generator (see the
    module docstring's determinism contract).

    The geometry is analytic: junction ``(r, c)`` sits at
    ``(float(c * block_m), float(r * block_m))`` and the nearest neighbour
    is the least ``(road length, junction id)`` over the up-to-four in-grid
    junctions beside it, so ties break on the id *string*
    (``"g10-5" < "g9-5"``). The road length is one ``math.hypot`` of the
    two positions' differences, the value of both
    ``RoadNetwork.distance`` (``hypot(bx - ax, by - ay)``) and the
    ``RoadsideUnit.covers`` distance (``hypot(dx, dy)`` from the RSU), so
    it also decides coverage. No road graph is built, so a slice costs
    O(stop − start); :func:`city_coverage` is the graph view of the same
    grid.
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
        junction = f"g{row}-{col}"
        x, y = float(col * block_m), float(row * block_m)
        road_length, neighbor = min(
            (math.hypot(float(c * block_m) - x, float(r * block_m) - y),
             f"g{r}-{c}")
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
        profile = DemandProfile(
            duration_s=spec.horizon_s,
            total_migrations=int(round(crossing_rate_hz * spec.horizon_s)),
            arrival_rate_hz=crossing_rate_hz,
            per_vehicle_rate_hz=crossing_rate_hz / vehicles,
            mean_interarrival_s=1.0 / crossing_rate_hz,
            interarrival_cv=1.0,
            busiest_pair=(
                junction,
                neighbor,
                int(round(crossing_rate_hz * spec.horizon_s)),
            ),
        )
        mean_data_units = float(
            np.mean([vmu.data_units for vmu in population])
        )
        capacity_natural = capacity_for_demand(
            profile,
            mean_data_units=mean_data_units,
            target_aotm=spec.target_aotm,
            spectral_efficiency=link.spectral_efficiency,
        )
        config = MarketConfig(max_bandwidth=capacity_natural * report_scale)
        markets.append(
            StackelbergMarket(population, config=config, link=link)
        )
    return markets


def city_coverage(spec: CityGridSpec) -> tuple[RoadNetwork, CoverageMap]:
    """The city's road network and full-city RSU coverage map.

    The graph view of the grid :func:`city_markets` derives analytically:
    a :func:`grid_city` network with one :class:`RoadsideUnit` per
    junction. A diagnostics companion (:class:`CoverageMap` lookups scan
    all RSUs, so a per-market query would be O(M²) at city scale), useful
    for asserting the grid leaves no coverage holes at junctions.
    """
    network = grid_city(
        spec.rows,
        spec.cols,
        block_m=spec.block_m,
        speed_limit_mps=spec.speed_limit_mps,
    )
    rsus = [
        RoadsideUnit(
            rsu_id=f"rsu-{junction}",
            position_m=network.position(junction),
            coverage_radius_m=spec.coverage_radius,
        )
        for junction in network.junctions()
    ]
    return network, CoverageMap(rsus)
