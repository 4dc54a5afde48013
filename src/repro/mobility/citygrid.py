"""City-scale market generation: one migration market per RSU-grid junction.

The paper's migration scenarios play out on a city street grid: every
junction hosts an RSU, vehicles crossing a cell hand their VT over to the
next RSU, and each junction's handover stream is one bandwidth market.
:func:`city_columns` draws a :class:`CityGridSpec`'s market population
straight into the ragged :class:`~repro.core.marketstack.MarketColumns`
that :meth:`MarketStack.from_columns` stacks, with each market's ``B_max``
sized from its migration rate by the formula of
:func:`repro.mobility.demand.capacity_for_demand`. :func:`city_markets`
builds the same markets as :class:`StackelbergMarket` objects, from those
columns.

The grid is regular, so no road graph is built: the junction geometry is
analytic in the ``(row, col)`` index. Junction ``(r, c)`` sits at
``(c * block_m, r * block_m)``, its road neighbours are the up-to-four
in-grid junctions beside it, and the ``hypot`` of two junction positions
is both the road length to a neighbour and the distance that decides
whether the source RSU's coverage disc reaches it. The geometry of a
whole slice is one array pass.

Determinism contract
--------------------
Market ``i`` is a pure function of ``(spec, i)``: every random draw is
the one ``np.random.default_rng([spec.seed, i])`` would take, and the
junction geometry is derived from the grid parameters alone. No
generator is built per junction: :func:`repro.utils.rng.indexed_draws`
computes a whole slice's draws from each junction's raw PCG64 stream in
array passes, replicating numpy's algorithms bit for bit, which changes
no draw. The columns of markets
``[start, stop)`` therefore equal that index range of the full build's
columns (every ``(M,)`` entry, and every VMU entry of those markets), and
the markets built from them equal the full build's objects, at a cost of
O(stop − start) — which is what lets scheduler jobs and chunked solves
construct only their own slice of a 10k-market city from a payload of a
dozen scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro import constants
from repro.channel.link import paper_link
from repro.core.marketstack import (
    DEFAULT_CHUNK_BYTES,
    MarketColumns,
    solve_scratch_bytes_per_market,
)
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import population_columns, population_ranges
from repro.errors import ConfigurationError
from repro.mobility.demand import sized_capacity
from repro.utils.rng import POISSON_LAM_MAX, indexed_draws
from repro.utils.validation import require_positive

__all__ = ["CityGridSpec", "city_columns", "city_markets"]

_SOFT_HANDOVER_FACTOR = 0.5
"""Migration-rate multiplier when the neighbouring junction is still inside
the source RSU's coverage: overlapping cells resolve half their crossings
as soft handovers that keep the VT in place."""

_CITY_LINK = paper_link()
"""Every junction's link is this one moved to the junction's distance."""
_CITY_CONFIG = MarketConfig()
"""Every junction market's config, apart from its ``B_max``."""
_POPULATION_RANGES = population_ranges()
_MAX_MARKETS = 1 << 32
"""Market indices key their streams as one uint32 word each
(:func:`repro.utils.rng.indexed_draws`)."""


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
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_markets", "rows", "cols", "max_vmus", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be an int, got {value!r}"
                )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.rows < 2 or self.cols < 2:
            raise ConfigurationError(
                f"need a >= 2x2 grid, got {self.rows}x{self.cols}"
            )
        if not 1 <= self.num_markets <= self.rows * self.cols:
            raise ConfigurationError(
                f"num_markets must be in [1, rows*cols] = "
                f"[1, {self.rows * self.cols}], got {self.num_markets}"
            )
        if self.num_markets > _MAX_MARKETS:
            raise ConfigurationError(
                f"num_markets must be <= 2**32 (each market index keys its "
                f"generator as one uint32 word), got {self.num_markets}"
            )
        if self.max_vmus < 1:
            raise ConfigurationError(
                f"max_vmus must be >= 1, got {self.max_vmus}"
            )
        if solve_scratch_bytes_per_market(self.max_vmus) > DEFAULT_CHUNK_BYTES:
            raise ConfigurationError(
                f"max_vmus={self.max_vmus} is too large: one market of that "
                f"many VMUs does not fit a {DEFAULT_CHUNK_BYTES}-byte solve "
                f"chunk"
            )
        for name in ("block_m", "speed_limit_mps", "vehicles_per_cell",
                     "target_aotm"):
            require_positive(name, getattr(self, name))
        if self.vehicles_per_cell > POISSON_LAM_MAX:
            raise ConfigurationError(
                f"vehicles_per_cell must be <= {POISSON_LAM_MAX!r}, numpy's "
                f"Poisson limit (each cell's vehicle count is a Poisson "
                f"draw), got {self.vehicles_per_cell!r}"
            )
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
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CityGridSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(**dict(payload))


def city_columns(
    spec: CityGridSpec, start: int = 0, stop: int | None = None
) -> MarketColumns:
    """Markets ``[start, stop)`` of the city grid, drawn straight into the
    ragged columns a :class:`~repro.core.marketstack.MarketStack` stores.

    Per junction: the cell's vehicle stream (``vehicles_per_cell`` vehicles
    crossing at the speed limit) sets the handover rate towards the nearest
    road neighbour; crossings that exit the source RSU's coverage are hard
    VT migrations, soft handovers (neighbour still covered) migrate at half
    that rate. :func:`~repro.mobility.demand.capacity_for_demand`'s sizing
    sets the market's ``B_max`` from that rate at the junction link's
    actual spectral efficiency. The VMU population and per-cell congestion
    are the per-index generator's draws (see the module docstring's
    determinism contract).

    The geometry is analytic: junction ``(r, c)`` sits at
    ``(float(c * block_m), float(r * block_m))`` and the road length is
    the least ``hypot`` of the position differences to the up-to-four
    in-grid junctions beside it (:func:`_road_lengths`). That same length
    decides coverage (the neighbour is covered when it is at most
    ``spec.coverage_radius`` away). No road graph is built, so a slice
    costs O(stop − start).

    Only the link's ``math.log2`` spectral efficiency runs per junction.
    The draws (:func:`~repro.utils.rng.indexed_draws`), the geometry, the
    populations, rates, population means and capacities are whole-slice
    array expressions with the bits of the per-market scalar ones. No VMU,
    link, config or market object is built;
    :meth:`MarketStack.from_columns` validates the columns and
    :func:`city_markets` builds the objects from them.
    """
    if stop is None:
        stop = spec.num_markets
    if not 0 <= start <= stop <= spec.num_markets:
        raise ConfigurationError(
            f"invalid market range [{start}, {stop}) for "
            f"{spec.num_markets} markets"
        )
    road_lengths = _road_lengths(spec, np.arange(start, stop))
    draws = indexed_draws(
        spec.seed, start, stop, spec.max_vmus, spec.vehicles_per_cell,
        0.6, 1.0,
    )
    # VTs migrate at the coverage boundary, somewhere along the road —
    # the RSU-to-RSU link distance is a per-cell fraction of the block.
    distances = road_lengths * draws.factors
    budget = _CITY_LINK.budget
    efficiencies = np.array(
        [budget.spectral_efficiency_at(d) for d in distances.tolist()],
        dtype=np.float64,
    )
    # A link so long that log2(1 + SNR) rounds to 0 carries nothing; the
    # capacity sizing below divides by it.
    dead = ~(efficiencies > 0.0)
    if dead.any():
        index = int(np.flatnonzero(dead)[0])
        raise ConfigurationError(
            f"market {start + index}: link spectral efficiency must be > 0, "
            f"got {efficiencies[index]!r} over {distances[index]!r} m "
            f"(block_m={spec.block_m!r})"
        )
    counts = draws.counts
    data_sizes_mb, immersion_coefs = population_columns(
        draws.uniforms, _POPULATION_RANGES
    )
    # VmuProfile.data_units, elementwise.
    data_units = data_sizes_mb / constants.DATA_UNIT_MB
    crossing_rate_hz = (
        (draws.poissons + 1).astype(np.float64)
        * spec.speed_limit_mps
        / road_lengths
    )
    # A neighbour inside the RSU's coverage takes soft handovers.
    crossing_rate_hz = np.where(
        road_lengths <= spec.coverage_radius,
        crossing_rate_hz * _SOFT_HANDOVER_FACTOR,
        crossing_rate_hz,
    )
    capacity_natural = sized_capacity(
        crossing_rate_hz,
        _population_means(data_units, counts),
        spec.target_aotm,
        efficiencies,
    )
    size = stop - start
    return MarketColumns(
        counts=counts,
        immersion_coefs=immersion_coefs,
        data_sizes_mb=data_sizes_mb,
        data_units=data_units,
        spectral_efficiencies=efficiencies,
        max_bandwidths=capacity_natural * _CITY_CONFIG.bandwidth_report_scale,
        distances_m=distances,
        unit_costs=np.full(size, _CITY_CONFIG.unit_cost),
        max_prices=np.full(size, _CITY_CONFIG.max_price),
        bandwidth_report_scales=np.full(
            size, _CITY_CONFIG.bandwidth_report_scale
        ),
        enforce_capacity=np.full(size, _CITY_CONFIG.enforce_capacity),
        link=_CITY_LINK,
    )


def _road_lengths(spec: CityGridSpec, indices: np.ndarray) -> np.ndarray:
    """Each junction's road length: the least distance from junction
    ``index`` to its up-to-four in-grid neighbours.

    Junction ``(r, c)`` sits at ``(float(c * block_m), float(r * block_m))``.
    The neighbours are scanned left, right, up, down, and a later one
    replaces the running minimum only when strictly shorter, which is the
    order and rule of Python's ``min`` over the neighbour distances.
    ``np.hypot`` of the position differences gives ``math.hypot``'s bits:
    one of the two differences of finite positions is an exact zero.
    """
    rows, cols, block_m = spec.rows, spec.cols, spec.block_m
    # Every index is below num_markets <= 2**32, so dividing by at most
    # that keeps a grid wider than int64 out of the array arithmetic.
    row, col = np.divmod(indices, min(cols, spec.num_markets))
    x, y = col * block_m, row * block_m
    lengths = np.full(indices.shape, np.nan)
    found = np.zeros(indices.shape, dtype=bool)
    for r, c in ((row, col - 1), (row, col + 1), (row - 1, col),
                 (row + 1, col)):
        length = np.hypot(c * block_m - x, r * block_m - y)
        inside = (0 <= r) & (r < rows) & (0 <= c) & (c < cols)
        take = inside & (~found | (length < lengths))
        lengths = np.where(take, length, lengths)
        found |= inside
    return lengths


def _population_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-market ``np.mean`` of the ragged concatenated ``values``.

    One reduction per distinct population size: the members' slices are
    gathered into a contiguous ``(k, n)`` block, and each row reduces the
    same ``n`` contiguous values the per-market ``np.mean`` reduced (with
    the same pairwise kernel), then divides by ``n`` — the same bits, at
    every ``n``.
    """
    starts = np.cumsum(counts) - counts
    means = np.empty(counts.shape[0], dtype=np.float64)
    for n in np.unique(counts):
        members = np.flatnonzero(counts == n)
        block = values[starts[members, np.newaxis] + np.arange(n)]
        means[members] = block.sum(axis=1) / n
    return means


def city_markets(
    spec: CityGridSpec, start: int = 0, stop: int | None = None
) -> list[StackelbergMarket]:
    """Markets ``[start, stop)`` of the city grid described by ``spec``, as
    :class:`StackelbergMarket` objects.

    The markets :func:`city_columns` describes, built one by one
    (:meth:`MarketColumns.market`); bulk solves skip the objects and
    stack the columns through :meth:`MarketStack.from_columns`.
    """
    columns = city_columns(spec, start, stop)
    return [columns.market(m) for m in range(len(columns))]
