"""Heterogeneous market stacking: M *different* Stackelberg markets, one pass.

:class:`StackelbergMarket.outcomes_batch` vectorises many prices against one
market. This module adds the orthogonal axis the paper's figures actually
sweep — many *markets*: a :class:`MarketStack` stacks the per-market
parameter arrays (``α`` and ``D`` as ``(M, N)`` matrices, capacities, unit
costs, and spectral efficiencies as ``(M,)`` vectors, ragged populations
padded and masked) and solves all ``M`` follower stages plus leader
utilities in a single numpy pass via :meth:`MarketStack.outcomes_stacked`.

Exactness contract
------------------
A stacked solve agrees **bitwise** with ``M`` separate per-market solves:

- every follower/leader quantity is the identical elementwise expression
  the per-market path evaluates (the ``_*_rows`` kernels in
  ``core/utilities`` and ``channel/ofdma``);
- padded population slots carry zero demand, and zeros are exact under
  both multiplication and addition;
- ragged stacks reduce each market's totals over its *own* population
  (summing a zero-padded row can associate differently inside numpy's
  pairwise reduction and drift a ulp), so the summation order matches the
  per-market solve exactly.

``StackelbergMarket.outcomes_batch`` is the ``M = 1`` broadcast case of
this path — the single-market price batch delegates here, so the two
entry points cannot diverge.

Equilibrium solve
-----------------
There is one solve mode: per market, the argmax of the exact leader
utility over Theorem 2's closed-form candidates (segment boundaries,
clamped per-segment optima, clamped capacity-saturating prices). The
candidate set contains the exact maximiser, so no numerical search
refines it; ``tests/game_oracle.py`` keeps a grid-then-golden refinement
as a differential oracle. The solve streams the stack through row ranges
("chunks") it sizes itself: as many rows as fit the
:data:`DEFAULT_CHUNK_BYTES` scratch budget (:func:`_chunk_rows`), so peak
memory is bounded by the chunk, not by ``M``. Every step (the Theorem-2
candidate matrix, its evaluation, the argmax, the final outcome) is
row-local: reductions run along the population or candidate axis, never
across markets, so every chunk size gives bitwise the same rows
(:meth:`MarketStack.equilibria_stacked_chunked` takes an explicit row
count to show it). Each chunk cuts every row's candidates to its distinct
prices (:func:`_distinct_candidates`) and evaluates them once through the
trusted body of :meth:`MarketStack.outcomes_stacked`; the winner's every
field is read off that one evaluation. Chunks of a few narrow rows solve
row by row in Python floats instead, to the same bits
(:data:`_SCALAR_SOLVE_MAX_ROWS`).

Live state
----------
:class:`MutableMarketStack` is a :class:`MarketStack` that adds the
writes: each mutation writes its one row of the padded columns in place
and marks it dirty. Both classes share one solve driver: it memoises its
last result and re-solves only the dirty rows, gathered by index through
the same row-local solve, then splices them into a copy of that result —
bitwise a cold solve of the current markets. An immutable stack never has
a dirty row, so its first solve is its answer for good.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.channel.link import RsuLink
from repro.channel.ofdma import _rationing_rows
from repro.core.stackelberg import (
    MarketConfig,
    MarketOutcome,
    PriceBatchOutcome,
    StackelbergEquilibrium,
    StackelbergMarket,
)
from repro.core.utilities import (
    _follower_best_response_rows,
    _msp_utilities_rows,
    _vmu_utilities_rows,
)
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError, InfeasibleMarketError
# Not called here; perfbench/tracing.py wraps both under this module's name.
from repro.game.solvers import golden_section_maximize, grid_then_golden_batch  # noqa: F401
from repro.utils.validation import require_index, require_positive

__all__ = [
    "MarketColumns",
    "MarketStack",
    "MutableMarketStack",
    "StackedOutcome",
    "StackedEquilibria",
    "DEFAULT_CHUNK_BYTES",
    "solve_scratch_bytes_per_market",
]

DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024
"""Scratch-memory budget of one solve chunk (64 MiB; see
:func:`_chunk_rows`)."""

_SCALAR_SOLVE_MAX_ROWS = 24
"""Row-count ceiling of the row-by-row solve (see
:meth:`MarketStack._solve_rows_scalar`). The numpy solve pays a fixed
~0.2 ms of array operations per chunk however few rows it holds, so
chunks of at most this many rows whose widest population is below 8
solve row by row in Python floats instead, linear in rows and bitwise the
same. The input size picks the path: ``StackelbergMarket.equilibrium()``
(``M = 1``) and small live re-solves take the rows, bulk solves the numpy
form.

Median time per ``_solve_rows`` call on ``rows`` markets drawn at random,
400 draws each: city rows (``N_max`` 6, a 1000-market grid at seed 7)
and random rows of 1–7 VMUs (1000 markets of the test suite's
``random_markets`` at seed 3). 2-core x86 host, numpy 2.4, Python 3.11:

====  =========  ==========  ===========  ============
rows  city rows  city numpy  random rows  random numpy
====  =========  ==========  ===========  ============
1     0.03 ms    0.19 ms     0.03 ms      0.19 ms
8     0.11 ms    0.26 ms     0.10 ms      0.25 ms
16    0.19 ms    0.30 ms     0.20 ms      0.31 ms
24    0.29 ms    0.33 ms     0.28 ms      0.33 ms
32    0.38 ms    0.34 ms     0.36 ms      0.36 ms
40    0.46 ms    0.36 ms     0.39 ms      0.35 ms
====  =========  ==========  ===========  ============

The crossover lies between 24 and 32 rows; the gate stays at 24, where
the row form still wins on both populations.
"""


def solve_scratch_bytes_per_market(n_max: int) -> int:
    """Estimated peak scratch bytes one market contributes to a chunk.

    Sized for the widest evaluation of the solve: a row whose
    ``width = 3·N_max + 4`` Theorem-2 candidates are all distinct, so the
    outcome at its ``(width, N_max)`` price-by-population grid holds six
    such arrays at once (best responses, masked demands, allocations, and
    the follower utilities with their two temporaries); plus the
    ``(width,)``-shaped candidate/total/scale temporaries and the
    candidate-matrix intermediates. Deliberately conservative so a chunk
    sized from a byte budget stays inside it including numpy's untracked
    temporaries.
    """
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    width = 3 * n_max + 4
    return 8 * (6 * width * n_max + 12 * width + 32 * n_max + 128)


def _chunk_rows(n_max: int) -> int:
    """Rows per chunk of a solve at padded width ``n_max``: as many as the
    :data:`DEFAULT_CHUNK_BYTES` budget holds, and at least one."""
    return max(1, DEFAULT_CHUNK_BYTES // solve_scratch_bytes_per_market(n_max))


def _population_groups(
    counts: np.ndarray, *, ragged: bool
) -> list[tuple[int, np.ndarray]] | None:
    """The ragged-reduction grouping of :func:`_per_market_totals`: one
    ``(n, member rows)`` pair per distinct population size, or ``None``
    when the full-width row sum already returns the per-market bits."""
    if not ragged:
        return None
    # np.unique is sorted, so the group order is deterministic.
    return [(int(n), np.flatnonzero(counts == n)) for n in np.unique(counts)]


def _per_market_totals(
    values: np.ndarray, groups: list[tuple[int, np.ndarray]] | None
) -> np.ndarray:
    """Row sums over the trailing population axis, one per market.

    Ragged stacks reduce each market over its *own* ``N`` so the summation
    order is identical to the per-market solve; zero-padded rows could
    associate differently inside numpy's pairwise reduction and drift a
    ulp. Markets are grouped by population size (``groups`` from
    :func:`_population_groups`) — one numpy reduction per *distinct* ``N``
    instead of one Python iteration per market; within a group each row
    reduces over the same contiguous ``[:n]`` slice the per-market loop
    reduced, so the grouping is bitwise-invisible.
    """
    if groups is None:
        return values.sum(axis=-1)
    totals = np.empty(values.shape[:-1], dtype=np.float64)
    for n, members in groups:
        totals[members] = values[members, ..., :n].sum(axis=-1)
    return totals


def _distinct_candidates(candidates: np.ndarray) -> np.ndarray:
    """Each row of a :meth:`MarketStack._candidate_rows` layout cut to its
    distinct prices, in first-occurrence order, and padded to the widest
    row with the row's first candidate ``C``.

    No sort is needed: the sorted boundaries repeat only adjacently, and a
    segment's optimum or saturating price is new only strictly inside
    ``(low, high)`` — otherwise it is a filled-in or clamped copy of a
    boundary. Evaluating a repeat gives its first occurrence's bits, so
    the first argmax over the cut row is the one over the full row, and a
    rare leftover repeat (a segment's optimum equal to its saturating
    price) is harmless.
    """
    segments = (candidates.shape[1] - 1) // 3
    low = candidates[:, :segments]
    high = candidates[:, 1 : segments + 1]
    optima = candidates[:, segments + 1 :].reshape(-1, 2, segments)
    inside = (low[:, np.newaxis] < optima) & (optima < high[:, np.newaxis])
    m = len(candidates)
    keep = np.concatenate(
        [np.ones((m, 1), dtype=bool), high != low, inside.reshape(m, -1)],
        axis=1,
    )
    slots = np.cumsum(keep, axis=1) - 1
    rows, cols = np.nonzero(keep)
    grid = np.repeat(candidates[:, :1], slots[:, -1].max() + 1, axis=1)
    grid[rows, slots[rows, cols]] = candidates[rows, cols]
    return grid


@dataclass(frozen=True)
class StackedOutcome:
    """Outcomes of one stacked trading round across ``M`` different markets.

    Arrays are batched along axis 0 (one entry per market). With per-market
    price *grids* the arrays carry an extra round axis ``R`` after the
    market axis. Padded population slots (``mask == False``) hold zeros.
    """

    prices: np.ndarray
    """Posted prices, shape ``(M,)`` or ``(M, R)``."""
    demands: np.ndarray
    """Requested bandwidth, shape ``(M, N_max)`` or ``(M, R, N_max)``."""
    allocations: np.ndarray
    """Granted bandwidth after per-market rationing (same shape)."""
    msp_utilities: np.ndarray
    """Leader utility per market (and round), shape ``(M,)`` or ``(M, R)``."""
    vmu_utilities: np.ndarray
    """Follower utilities (same shape as ``demands``)."""
    capacity_binding: np.ndarray
    """Whether Σ demand hit the market's ``B_max`` (prices' shape, bool)."""
    mask: np.ndarray
    """Valid-population mask, boolean shape ``(M, N_max)``."""
    counts: np.ndarray
    """True population size per market, shape ``(M,)``."""

    def __len__(self) -> int:
        return self.num_markets

    @property
    def num_markets(self) -> int:
        """Stack width ``M``."""
        return int(self.prices.shape[0])

    @property
    def has_price_grid(self) -> bool:
        """True when the stack was solved on per-market price grids."""
        return self.prices.ndim == 2

    @property
    def total_allocated(self) -> np.ndarray:
        """Σ granted bandwidth per market (and round), prices' shape."""
        return self.allocations.sum(axis=-1)

    def row(self, market_index: int) -> MarketOutcome:
        """Market ``market_index``'s outcome as a scalar
        :class:`MarketOutcome` (padding stripped).

        Only defined for vector-priced solves; grid solves expose
        :meth:`market_rows` instead.
        """
        if self.has_price_grid:
            raise ConfigurationError(
                "row() is for (M,)-priced solves; use market_rows() on a "
                "price-grid solve"
            )
        n = int(self.counts[market_index])
        return MarketOutcome(
            price=float(self.prices[market_index]),
            demands=self.demands[market_index, :n].copy(),
            allocations=self.allocations[market_index, :n].copy(),
            msp_utility=float(self.msp_utilities[market_index]),
            vmu_utilities=self.vmu_utilities[market_index, :n].copy(),
            capacity_binding=bool(self.capacity_binding[market_index]),
        )

    def market_rows(self, market_index: int) -> PriceBatchOutcome:
        """Market ``market_index``'s full price batch as a
        :class:`PriceBatchOutcome` (padding stripped).

        Only defined for grid solves — the per-market view that slots into
        everything already consuming single-market price batches.
        """
        if not self.has_price_grid:
            raise ConfigurationError(
                "market_rows() is for (M, R)-priced solves; use row() on a "
                "vector-priced solve"
            )
        n = int(self.counts[market_index])
        return PriceBatchOutcome(
            prices=self.prices[market_index],
            demands=self.demands[market_index, :, :n],
            allocations=self.allocations[market_index, :, :n],
            msp_utilities=self.msp_utilities[market_index],
            vmu_utilities=self.vmu_utilities[market_index, :, :n],
            capacity_binding=self.capacity_binding[market_index],
        )


@dataclass(frozen=True)
class StackedEquilibria:
    """Stackelberg equilibria of ``M`` different markets, one stacked solve.

    Arrays are batched along axis 0 (one entry per market); padded
    population slots hold zeros. Markets where no feasible price induces
    any demand are *masked*: their ``feasible`` entry is ``False``, their
    numeric fields hold ``nan`` (bindings ``False``), and
    :meth:`equilibrium` raises the same :class:`InfeasibleMarketError` the
    per-market :meth:`StackelbergMarket.equilibrium` raises — the stacked
    solve never aborts a whole grid for one degenerate member.
    """

    prices: np.ndarray
    """Equilibrium price per market, shape ``(M,)`` (``nan`` if infeasible)."""
    demands: np.ndarray
    """Equilibrium bandwidth per VMU (natural units), shape ``(M, N_max)``."""
    msp_utilities: np.ndarray
    """Leader utility at equilibrium, shape ``(M,)``."""
    vmu_utilities: np.ndarray
    """Follower utilities at equilibrium, shape ``(M, N_max)``."""
    capacity_binding: np.ndarray
    """Whether Σ demand hit the market's ``B_max``, boolean ``(M,)``."""
    price_cap_binding: np.ndarray
    """Whether the equilibrium sits at ``p_max``, boolean ``(M,)``."""
    feasible: np.ndarray
    """Whether the market admits profitable trade, boolean ``(M,)``."""
    mask: np.ndarray
    """Valid-population mask, boolean shape ``(M, N_max)``."""
    counts: np.ndarray
    """True population size per market, shape ``(M,)``."""
    unit_costs: np.ndarray
    """Per-market unit cost ``C``, shape ``(M,)`` (for error reporting)."""
    _scalar_cache: dict[int, StackelbergEquilibrium] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    """Lazily built per-market scalar equilibria (accessor memo)."""

    def __len__(self) -> int:
        return self.num_markets

    @property
    def num_markets(self) -> int:
        """Stack width ``M``."""
        return int(self.prices.shape[0])

    @property
    def total_bandwidths(self) -> np.ndarray:
        """Σ b*_n per market in natural units, shape ``(M,)``.

        Always reduces each market over its own population — the same sum
        the scalar ``StackelbergEquilibrium.total_bandwidth`` evaluates.
        """
        return _per_market_totals(
            self.demands, _population_groups(self.counts, ragged=True)
        )

    def equilibrium(self, market_index: int) -> StackelbergEquilibrium:
        """Market ``market_index``'s equilibrium as a scalar
        :class:`StackelbergEquilibrium` (padding stripped).

        Built once per market and cached — repeated access during sweep
        assembly is O(1). The cached object is shared between callers, so
        its arrays are read-only (the stacked backing arrays already are).

        ``market_index`` indexes like a sequence (negative counts from
        the end); the cache is keyed by the normalised row, so ``-1`` and
        ``M - 1`` share one entry.

        Raises:
            InfeasibleMarketError: if the market admits no profitable
                trade — the identical semantics of the per-market
                :meth:`StackelbergMarket.equilibrium`.
        """
        index = range(self.num_markets)[market_index]
        if not bool(self.feasible[index]):
            raise InfeasibleMarketError(
                "every VMU's drop-out threshold is at or below the unit "
                f"cost C={float(self.unit_costs[index])}; no "
                "profitable trade exists"
            )
        cached = self._scalar_cache.get(index)
        if cached is not None:
            return cached
        n = int(self.counts[index])
        demands = self.demands[index, :n].copy()
        vmu_utilities = self.vmu_utilities[index, :n].copy()
        demands.setflags(write=False)
        vmu_utilities.setflags(write=False)
        result = StackelbergEquilibrium(
            price=float(self.prices[index]),
            demands=demands,
            msp_utility=float(self.msp_utilities[index]),
            vmu_utilities=vmu_utilities,
            capacity_binding=bool(self.capacity_binding[index]),
            price_cap_binding=bool(self.price_cap_binding[index]),
        )
        self._scalar_cache[index] = result
        return result

    def equilibria(self) -> list[StackelbergEquilibrium | None]:
        """Every market's scalar equilibrium (``None`` where infeasible)."""
        return [
            self.equilibrium(m) if bool(self.feasible[m]) else None
            for m in range(self.num_markets)
        ]


_POPULATION_COLUMNS = ("immersion_coefs", "data_sizes_mb", "data_units")
_MARKET_COLUMNS = (
    "spectral_efficiencies",
    "max_bandwidths",
    "distances_m",
    "unit_costs",
    "max_prices",
    "bandwidth_report_scales",
)


@dataclass(frozen=True, eq=False)
class MarketColumns:
    """``M`` markets as the ragged columns a :class:`MarketStack` stores.

    The ``(M,)`` columns hold one entry per market. The population columns
    concatenate the markets' VMUs in market order: market ``m`` owns the
    next ``counts[m]`` entries. Member ``m`` is the market
    ``StackelbergMarket(vmus, config=MarketConfig(...), link=
    link.with_distance(distances_m[m]))`` whose VMUs are
    ``VmuProfile(f"vmu-{j}", data_sizes_mb[.], immersion_coefs[.])``, so
    ``data_units`` must be their ``VmuProfile.data_units`` and
    ``spectral_efficiencies[m]`` the moved link's spectral efficiency.
    :meth:`market` builds that object.

    :func:`repro.mobility.citygrid.city_columns` draws a city grid
    straight into this form, and :meth:`MarketStack.from_columns` stacks it
    after validating every column; no per-market object is built on the
    way.
    """

    counts: np.ndarray
    """VMUs per market, integer ``(M,)``."""
    immersion_coefs: np.ndarray
    """``α`` of every VMU, ``(Σ counts,)``."""
    data_sizes_mb: np.ndarray
    """``D`` of every VMU in megabytes, ``(Σ counts,)``."""
    data_units: np.ndarray
    """``D`` of every VMU in natural data units, ``(Σ counts,)``."""
    spectral_efficiencies: np.ndarray
    """Link SE per market, ``(M,)``."""
    max_bandwidths: np.ndarray
    """``B_max`` per market in market units, ``(M,)``."""
    distances_m: np.ndarray
    """RSU-to-RSU link distance per market, ``(M,)``."""
    unit_costs: np.ndarray
    """Unit transmission cost ``C`` per market, ``(M,)``."""
    max_prices: np.ndarray
    """Price ceiling ``p_max`` per market, ``(M,)``."""
    bandwidth_report_scales: np.ndarray
    """Market units per natural bandwidth unit, per market, ``(M,)``."""
    enforce_capacity: np.ndarray
    """Whether each market enforces its ``B_max``, boolean ``(M,)``."""
    link: RsuLink
    """The link every member's own link is moved from (by distance)."""

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def _offsets(self) -> list[int]:
        return [0, *np.cumsum(self.counts).tolist()]

    def market(self, market_index: int) -> StackelbergMarket:
        """Member ``market_index`` as a :class:`StackelbergMarket`."""
        index = range(len(self))[market_index]
        lo, hi = self._offsets[index], self._offsets[index + 1]
        vmus = [
            VmuProfile(vmu_id=f"vmu-{j}", data_size_mb=d, immersion_coef=a)
            for j, (d, a) in enumerate(
                zip(
                    self.data_sizes_mb[lo:hi].tolist(),
                    self.immersion_coefs[lo:hi].tolist(),
                )
            )
        ]
        config = MarketConfig(
            unit_cost=float(self.unit_costs[index]),
            max_price=float(self.max_prices[index]),
            max_bandwidth=float(self.max_bandwidths[index]),
            bandwidth_report_scale=float(self.bandwidth_report_scales[index]),
            enforce_capacity=bool(self.enforce_capacity[index]),
        )
        link = self.link.with_distance(float(self.distances_m[index]))
        return StackelbergMarket(vmus, config=config, link=link)


def _float_column(name: str, values, length: int) -> np.ndarray:
    """``values`` as a float64 ``(length,)`` column, finite and > 0."""
    try:
        column = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be numeric: {exc}") from None
    if column.shape != (length,):
        raise ConfigurationError(
            f"{name} must have shape ({length},), got {column.shape}"
        )
    bad = np.flatnonzero(~(np.isfinite(column) & (column > 0.0)))
    if bad.size:
        raise ConfigurationError(
            f"{name} must be finite and > 0, got {column[bad[0]]!r} at "
            f"index {int(bad[0])}"
        )
    return column


def _validated(columns: MarketColumns) -> MarketColumns:
    """``columns`` with every column checked once, whole-array, and
    converted to its array dtype (:meth:`MarketStack.from_columns`)."""
    if not isinstance(columns, MarketColumns):
        raise ConfigurationError(
            f"expected MarketColumns, got {type(columns).__name__}"
        )
    counts = np.asarray(columns.counts)
    if counts.ndim != 1 or counts.dtype.kind not in "iu":
        raise ConfigurationError(
            "counts must be a 1-D integer array, got dtype "
            f"{counts.dtype} and shape {counts.shape}"
        )
    if counts.shape[0] == 0:
        raise ConfigurationError("market stack needs at least one market")
    if (counts < 1).any():
        raise ConfigurationError(
            "every market needs at least one VMU, got counts "
            f"{int(counts.min())} at index {int(np.argmin(counts))}"
        )
    counts = counts.astype(np.int64)
    num_markets, num_vmus = counts.shape[0], int(counts.sum())
    checked = {
        name: _float_column(name, getattr(columns, name), num_vmus)
        for name in _POPULATION_COLUMNS
    }
    checked.update(
        (name, _float_column(name, getattr(columns, name), num_markets))
        for name in _MARKET_COLUMNS
    )
    inverted = np.flatnonzero(checked["unit_costs"] > checked["max_prices"])
    if inverted.size:
        m = int(inverted[0])
        raise ConfigurationError(
            f"unit_cost ({checked['unit_costs'][m]}) exceeds max_price "
            f"({checked['max_prices'][m]}) in market {m}; the price "
            "interval [C, p_max] is empty"
        )
    enforce = np.asarray(columns.enforce_capacity)
    if enforce.dtype != bool or enforce.shape != (num_markets,):
        raise ConfigurationError(
            f"enforce_capacity must be a boolean ({num_markets},) array, "
            f"got dtype {enforce.dtype} and shape {enforce.shape}"
        )
    if not isinstance(columns.link, RsuLink):
        raise ConfigurationError(
            f"link must be an RsuLink, got {type(columns.link).__name__}"
        )
    return replace(columns, counts=counts, enforce_capacity=enforce, **checked)


def _market_columns(
    markets: Sequence[StackelbergMarket],
) -> dict[str, np.ndarray]:
    """The :meth:`MarketStack._fill` columns of ``markets``.

    The members validated themselves at construction; they reduce to the
    stack's columns with no second check.
    """
    num_markets = len(markets)

    def column(values, dtype=np.float64) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=num_markets)

    return {
        "counts": column((m.num_vmus for m in markets), np.int64),
        "alphas": np.concatenate([m._alphas for m in markets]),
        "data": np.concatenate([m._data_units for m in markets]),
        "se": column(m.spectral_efficiency for m in markets),
        "unit_costs": column(m.config.unit_cost for m in markets),
        "max_prices": column(m.config.max_price for m in markets),
        "caps": column(m.config.capacity_natural for m in markets),
        "enforce": column((m.config.enforce_capacity for m in markets), bool),
    }


_SOLVED_FIELDS = (
    "prices",
    "demands",
    "msp_utilities",
    "vmu_utilities",
    "capacity_binding",
    "price_cap_binding",
    "feasible",
)


def _empty_result(num_markets: int, n_max: int) -> dict[str, np.ndarray]:
    """Uninitialised arrays for the solved fields of a
    :class:`StackedEquilibria`, which the chunks of a solve fill."""
    return {
        "prices": np.empty(num_markets, dtype=np.float64),
        "demands": np.empty((num_markets, n_max), dtype=np.float64),
        "msp_utilities": np.empty(num_markets, dtype=np.float64),
        "vmu_utilities": np.empty((num_markets, n_max), dtype=np.float64),
        "capacity_binding": np.empty(num_markets, dtype=bool),
        "price_cap_binding": np.empty(num_markets, dtype=bool),
        "feasible": np.empty(num_markets, dtype=bool),
    }


_Row = list
"""A written row's description ``[vmus, config, link]``: its VMU profiles,
config and link, which later writes to the row update in place."""


class MarketStack:
    """A stack of ``M`` (possibly heterogeneous) Stackelberg markets.

    Stacks per-market parameters into padded ``(M, N_max)`` matrices once
    at construction; :meth:`outcomes_stacked` then solves all ``M`` markets
    at ``M`` different prices (or ``M`` whole price grids) in one numpy
    pass. See the module docstring for the bitwise exactness contract and
    :meth:`equilibria_stacked` for the (memory-bounded) equilibrium solve.

    The solve helpers take their rows ``sl`` as a row range or an index
    array: every step is row-local, so a row's bits do not depend on
    which other rows it is solved with. :class:`MutableMarketStack`
    re-solves only the rows it wrote on that basis.

    Args:
        markets: any iterable of :class:`StackelbergMarket` (at least
            one); a non-market entry raises
            :class:`~repro.errors.ConfigurationError` naming its index.
    """

    def __init__(self, markets: Iterable[StackelbergMarket]) -> None:
        members = list(markets)
        for index, market in enumerate(members):
            if not isinstance(market, StackelbergMarket):
                raise ConfigurationError(
                    f"market {index} must be a StackelbergMarket, got "
                    f"{type(market).__name__}"
                )
        if not members:
            raise ConfigurationError("market stack needs at least one market")
        self._fill(**_market_columns(members))
        self._members: dict[int, StackelbergMarket | _Row] = dict(
            enumerate(members)
        )
        self._columns: MarketColumns | None = None

    @classmethod
    def from_columns(cls, columns: MarketColumns) -> "MarketStack":
        """A stack over markets given as :class:`MarketColumns`.

        Validates each column once, whole-array: every float column finite
        and > 0, ``unit_costs <= max_prices``, every count >= 1, at least
        one market, and lengths that agree with ``counts``; any failure
        raises :class:`~repro.errors.ConfigurationError` naming the
        column. The natural capacities are ``max_bandwidths /
        bandwidth_report_scales``, the elementwise
        ``MarketConfig.capacity_natural``.

        No member :class:`StackelbergMarket` is built: :attr:`markets` and
        :meth:`market` build them on first access (then cache them), and
        they are the objects :meth:`MarketColumns.market` returns — so the
        stack's arrays and solves are bitwise those of
        ``MarketStack(markets)`` over the same members.
        """
        columns = _validated(columns)
        stack = cls.__new__(cls)
        # The stack owns a copy of every (M,) column a MutableMarketStack
        # write touches: the members are built from the unchanged columns
        # (their counts place each market's VMUs), and no write may reach
        # the caller's arrays or another stack built from them.
        stack._fill(
            counts=columns.counts.copy(),
            alphas=columns.immersion_coefs,
            data=columns.data_units,
            se=columns.spectral_efficiencies.copy(),
            unit_costs=columns.unit_costs.copy(),
            max_prices=columns.max_prices.copy(),
            caps=columns.max_bandwidths / columns.bandwidth_report_scales,
            enforce=columns.enforce_capacity.copy(),
        )
        stack._members = {}
        stack._columns = columns
        return stack

    def _fill(
        self,
        *,
        counts: np.ndarray,
        alphas: np.ndarray,
        data: np.ndarray,
        se: np.ndarray,
        unit_costs: np.ndarray,
        max_prices: np.ndarray,
        caps: np.ndarray,
        enforce: np.ndarray,
    ) -> None:
        """Stack validated ragged columns (``alphas``/``data`` concatenated
        over the markets' populations) into the padded solve state."""
        num_markets = counts.shape[0]
        n_max = int(counts.max())
        # Padding value 1.0 keeps the padded slots' elementwise math finite;
        # the mask zeroes their demand before anything downstream sees it.
        # The mask's True slots are each row's leading prefix, so boolean
        # assignment (row-major) scatters the concatenated per-market
        # vectors into exactly the slots the per-market fill loop wrote.
        mask = np.arange(n_max) < counts[:, np.newaxis]
        self._alphas = np.ones((num_markets, n_max), dtype=np.float64)
        self._data = np.ones((num_markets, n_max), dtype=np.float64)
        self._alphas[mask] = alphas
        self._data[mask] = data
        self._counts = counts
        self._mask = mask
        self._ragged = bool((counts != n_max).any())
        # An all-valid mask (every market at full width N_max) lets the
        # stacked round skip its two masking ``np.where`` passes — with no
        # padded slots they return the input values bit for bit.
        self._fullmask = not self._ragged
        self._se = se
        self._unit_costs = unit_costs
        self._max_prices = max_prices
        self._caps = caps
        self._enforce = enforce
        # Non-enforcing markets ration against an infinite capacity, which
        # leaves their rows scaled by exactly 1.0 (bitwise unchanged).
        # Built with the columns — outcomes_stacked runs every env round.
        self._effective_caps = np.where(enforce, caps, np.inf)
        # The solve driver's state (see _solve): rows written since the
        # last solve (always empty on an immutable stack), that solve's
        # result, and the work done so far.
        self._dirty: set[int] = set()
        self._solved: StackedEquilibria | None = None
        self._solve_count = 0
        self._rows_resolved = 0

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_markets

    def __iter__(self) -> Iterator[StackelbergMarket]:
        return iter(self.markets)

    @property
    def markets(self) -> tuple[StackelbergMarket, ...]:
        """The current member markets (snapshot tuple; see :meth:`market`)."""
        return tuple(self.market(m) for m in range(self.num_markets))

    def market(self, market_index: int) -> StackelbergMarket:
        """The current ``market_index``-th member market.

        Members live in one row cache: the markets the stack was built
        from, else built on first access — by :meth:`MarketColumns.market`
        on a :meth:`from_columns` stack, and from the row's VMU profiles,
        config and link after a :class:`MutableMarketStack` write (never
        from the solve columns).
        """
        index = range(self.num_markets)[market_index]
        member = self._members.get(index)
        if isinstance(member, StackelbergMarket):
            return member
        if member is None:
            member = self._columns.market(index)
        else:
            vmus, config, link = member
            member = StackelbergMarket(vmus, config=config, link=link)
        self._members[index] = member
        return member

    @property
    def solve_count(self) -> int:
        """Solves performed so far (the first full one, then one per solve
        that found rows written since the last)."""
        return self._solve_count

    @property
    def rows_resolved(self) -> int:
        """Total market rows solved across all solves — the work an
        incremental path actually did (a cold path would pay
        ``solve_count · M``)."""
        return self._rows_resolved

    @property
    def num_markets(self) -> int:
        """Stack width ``M``."""
        return int(self._counts.shape[0])

    @property
    def max_vmus(self) -> int:
        """Widest population ``N_max`` (the padded trailing axis)."""
        return int(self._mask.shape[1])

    @property
    def counts(self) -> np.ndarray:
        """True population size per market, shape ``(M,)`` (copy)."""
        return self._counts.copy()

    @property
    def mask(self) -> np.ndarray:
        """Valid-population mask ``(M, N_max)`` (copy)."""
        return self._mask.copy()

    @property
    def immersion_coefs(self) -> np.ndarray:
        """Padded ``α`` matrix ``(M, N_max)`` (copy)."""
        return self._alphas.copy()

    @property
    def data_units(self) -> np.ndarray:
        """Padded ``D`` matrix ``(M, N_max)`` in natural units (copy)."""
        return self._data.copy()

    @property
    def spectral_efficiencies(self) -> np.ndarray:
        """Per-market link SE ``(M,)`` (copy)."""
        return self._se.copy()

    @property
    def unit_costs(self) -> np.ndarray:
        """Per-market transmission cost ``C`` ``(M,)`` (copy)."""
        return self._unit_costs.copy()

    @property
    def max_prices(self) -> np.ndarray:
        """Per-market price ceiling ``p_max`` ``(M,)`` (copy)."""
        return self._max_prices.copy()

    @property
    def capacities_natural(self) -> np.ndarray:
        """Per-market ``B_max`` in natural units ``(M,)`` (copy)."""
        return self._caps.copy()

    # ------------------------------------------------------------------ #
    # the row-local solve
    # ------------------------------------------------------------------ #
    def _outcomes_trusted(
        self, p: np.ndarray, sl: slice | np.ndarray = slice(None)
    ) -> StackedOutcome:
        """Body of :meth:`MarketStack.outcomes_stacked` for already
        validated prices, over rows ``sl`` of the stack (``p`` holds those
        rows' prices).

        The vector environment calls this directly each round: its prices
        come out of its own ``[C, p_max]`` clamp, so they are finite and
        positive by construction and re-validating them every step is pure
        overhead on the training hot path. The equilibrium solve calls it
        once per chunk, on the chunk's distinct candidate prices. It reads
        the padding flags as they stand: callers on a written stack run
        :meth:`_sync_padding` first.
        """
        grid = p.ndim == 2
        row_mask = self._mask[sl]
        mask = row_mask[:, np.newaxis, :] if grid else row_mask
        alphas, data, se = self._alphas[sl], self._data[sl], self._se[sl]
        caps, enforce = self._caps[sl], self._enforce[sl]
        counts = self._counts[sl]
        groups = _population_groups(counts, ragged=self._ragged)
        # Unchecked kernels: the stack's static parameters were validated
        # once at construction, and ``p`` by the caller — re-checking them
        # every round is pure overhead on this path (the vector env steps
        # through here each round).
        raw = _follower_best_response_rows(alphas, data, p, se)
        demands = raw if self._fullmask else np.where(mask, raw, 0.0)
        demand_totals = _per_market_totals(demands, groups)
        allocations = _rationing_rows(
            demands, self._effective_caps[sl], demand_totals
        )
        caps_rows = caps[:, np.newaxis] if grid else caps
        enforce_rows = enforce[:, np.newaxis] if grid else enforce
        binding = enforce_rows & (demand_totals >= caps_rows * (1.0 - 1e-9))
        utilities = _msp_utilities_rows(
            p, self._unit_costs[sl], _per_market_totals(allocations, groups)
        )
        vmu_raw = _vmu_utilities_rows(alphas, data, allocations, p, se)
        follower_utilities = (
            vmu_raw if self._fullmask else np.where(mask, vmu_raw, 0.0)
        )
        return StackedOutcome(
            prices=p,
            demands=demands,
            allocations=allocations,
            msp_utilities=utilities,
            vmu_utilities=follower_utilities,
            capacity_binding=binding,
            mask=row_mask.copy(),
            counts=counts.copy(),
        )

    def _candidate_rows(
        self, sl: slice | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Theorem 2's closed-form candidate prices for rows ``sl``.

        Vectorises the scalar per-segment enumeration (the test oracle
        ``segment_candidates`` in ``tests/game_oracle.py``) across the
        stack. Per market the layout is: the ``N_max + 2`` segment
        boundaries (``C``, the drop-out thresholds inside ``(C, p_max)``
        sorted ascending, ``p_max``), then each of the ``N_max + 1``
        segments' clamped unconstrained optimum ``sqrt(C·SE·Σ_A α / Σ_A D)``
        and clamped capacity-saturating price ``Σ_A α / (B + Σ_A D/SE)`` —
        a ``(m, 3·N_max + 4)`` matrix. The per-segment active-set sums come
        from prefix sums of ``α`` and ``D`` sorted by descending threshold,
        so one cumulative pass replaces the per-probe ``O(N)`` re-reduction.
        Padded population slots sort to the end (threshold ``-inf``) and
        contribute zero to every prefix; segment slots with no active VMU
        (or with capacity enforcement off, for the ``p_cap`` entries)
        duplicate their segment's lower boundary, which is already a
        candidate — duplicates never change the argmax's *price*, so a row
        solved inside a wide ragged stack picks the identical equilibrium
        it picks alone. Every operation is row-local (sorts, prefix sums,
        and reductions run along axis 1), so the rows of a slice are
        bitwise the rows of the full matrix — the property the chunked
        solve streams on. ``sl = slice(None)`` gives the whole stack's
        matrix.

        Returns ``(candidates (m, K), feasible (m,))``.
        """
        row_mask = self._mask[sl]
        row_alphas = self._alphas[sl]
        row_data = self._data[sl]
        costs = self._unit_costs[sl][:, np.newaxis]
        caps_price = self._max_prices[sl][:, np.newaxis]
        se = self._se[sl][:, np.newaxis]
        thresholds = row_alphas * se / row_data
        masked_t = np.where(row_mask, thresholds, -np.inf)
        feasible = masked_t.max(axis=1) > self._unit_costs[sl]

        # Prefix sums over (α, D) sorted by descending threshold: the
        # active set of any probe price is a prefix of this order.
        order = np.argsort(-masked_t, axis=1, kind="stable")
        t_desc = np.take_along_axis(masked_t, order, axis=1)
        alpha_prefix = np.cumsum(
            np.take_along_axis(
                np.where(row_mask, row_alphas, 0.0), order, axis=1
            ),
            axis=1,
        )
        data_prefix = np.cumsum(
            np.take_along_axis(
                np.where(row_mask, row_data, 0.0), order, axis=1
            ),
            axis=1,
        )

        inside = row_mask & (thresholds > costs) & (thresholds < caps_price)
        inner = np.sort(np.where(inside, thresholds, caps_price), axis=1)
        boundaries = np.concatenate([costs, inner, caps_price], axis=1)
        low = boundaries[:, :-1]
        high = boundaries[:, 1:]
        probe = 0.5 * (low + high)
        active_counts = (t_desc[:, np.newaxis, :] > probe[:, :, np.newaxis]).sum(
            axis=2
        )
        has_active = active_counts > 0
        prefix_idx = np.maximum(active_counts - 1, 0)
        alpha_sums = np.take_along_axis(alpha_prefix, prefix_idx, axis=1)
        data_sums = np.take_along_axis(data_prefix, prefix_idx, axis=1)
        p_unconstrained = np.sqrt(costs * se * alpha_sums / data_sums)
        p_cap = alpha_sums / (self._caps[sl][:, np.newaxis] + data_sums / se)
        unconstrained = np.where(
            has_active, np.clip(p_unconstrained, low, high), low
        )
        saturating = np.where(
            has_active & self._enforce[sl][:, np.newaxis],
            np.clip(p_cap, low, high),
            low,
        )
        candidates = np.concatenate(
            [boundaries, unconstrained, saturating], axis=1
        )
        return candidates, feasible

    def _solve_rows_scalar(
        self, sl: slice | np.ndarray
    ) -> dict[str, np.ndarray]:
        """:meth:`_solve_rows` row by row in Python floats, for small
        chunks.

        Per row: :meth:`_candidate_rows`' segments over the row's own
        population, each distinct candidate's leader utility by
        :meth:`_outcomes_trusted`' demand → rationing → utility chain, the
        first argmax and the outcome at it. The follower utilities are left
        to numpy, since ``math.log1p`` and ``np.log1p`` round differently
        on some inputs; an infeasible row's ``nan`` allocations make them
        ``nan``.

        The bits are the numpy form's. Python floats and float64 round
        alike, every expression keeps the numpy operation order
        (``min(max(x, low), high)`` is ``np.clip``, and zeroing
        ``d < 0.0`` is ``np.maximum(d, 0.0)`` since a ``-0.0`` demand is
        impossible), and explicit sequential sums match numpy's below
        width 8, hence the width gate (the builtin ``sum`` compensates on
        Python 3.12). Skipping padded segments and repeated prices cannot
        move the first argmax: a repeat evaluates to its first
        occurrence's bits. The segment optimum and the saturating price
        are computed only where the numpy form keeps them (Python raises
        on a 0/0 that numpy turns into a discarded NaN).
        """
        columns = (self._counts, self._alphas, self._data, self._se)
        columns += (self._unit_costs, self._max_prices, self._caps, self._enforce)
        rows = list(zip(*(column[sl].tolist() for column in columns)))
        allocations = np.zeros((len(rows), self.max_vmus))
        feasible, prices, msp_utilities = [], [], []
        capacity_binding, price_cap_binding = [], []
        for i, row in enumerate(rows):
            n, a_row, d_row, se, cost, p_max, cap, enforce = row
            a_row, d_row = a_row[:n], d_row[:n]
            pairs = [(a, d / se) for a, d in zip(a_row, d_row)]
            thresholds = [a * se / d for a, d in zip(a_row, d_row)]
            feasible.append(max(thresholds) > cost)
            if not feasible[-1]:
                allocations[i] = math.nan
                prices.append(math.nan)
                msp_utilities.append(math.nan)
                capacity_binding.append(False)
                price_cap_binding.append(False)
                continue
            effective_cap = cap if enforce else math.inf
            # Active-set prefix sums by descending threshold (stable).
            t_desc, prefix, alpha_sum, data_sum = [], [], 0.0, 0.0
            for j in sorted(range(n), key=thresholds.__getitem__, reverse=True):
                alpha_sum += a_row[j]
                data_sum += d_row[j]
                t_desc.append(thresholds[j])
                prefix.append((alpha_sum, data_sum))
            inside = sorted(t for t in thresholds if cost < t < p_max)
            boundaries = [cost, *inside, p_max]
            optima, saturating = [], []
            for low, high in zip(boundaries[:-1], boundaries[1:]):
                probe = 0.5 * (low + high)
                active = 0
                while active < n and t_desc[active] > probe:
                    active += 1
                if not active:
                    optima.append(low)
                    saturating.append(low)
                    continue
                alpha_sum, data_sum = prefix[active - 1]
                optimum = math.sqrt(cost * se * alpha_sum / data_sum)
                optima.append(min(max(optimum, low), high))
                if enforce:
                    p_cap = alpha_sum / (cap + data_sum / se)
                    saturating.append(min(max(p_cap, low), high))
                else:
                    saturating.append(low)
            best, seen = None, set()
            for p in (*boundaries, *optima, *saturating):
                if p in seen:
                    continue
                seen.add(p)
                demands, total = [], 0.0
                for a, r in pairs:
                    d = a / p - r
                    if d < 0.0:
                        d = 0.0
                    demands.append(d)
                    total += d
                served = total
                if total > effective_cap:
                    scale = effective_cap / total
                    demands = [d * scale for d in demands]
                    served = 0.0
                    for d in demands:
                        served += d
                value = (p - cost) * served
                if best is None or value > best[0]:
                    best = (value, p, demands, total)
            value, price, allocations[i, :n], total = best
            prices.append(price)
            msp_utilities.append(value)
            capacity_binding.append(enforce and total >= cap * (1.0 - 1e-9))
            price_cap_binding.append(abs(price - p_max) < 1e-9)
        prices = np.array(prices)
        vmu_utilities = _vmu_utilities_rows(
            self._alphas[sl], self._data[sl], allocations, prices, self._se[sl]
        )
        return {
            "prices": prices,
            "demands": allocations,
            "msp_utilities": np.array(msp_utilities),
            "vmu_utilities": vmu_utilities,
            "capacity_binding": np.array(capacity_binding, dtype=bool),
            "price_cap_binding": np.array(price_cap_binding, dtype=bool),
            "feasible": np.array(feasible, dtype=bool),
        }

    def _solve_rows(self, sl: slice | np.ndarray) -> dict[str, np.ndarray]:
        """Equilibrium arrays for rows ``sl``: one chunk of the solve.

        One outcome over each row's distinct Theorem-2 candidates
        (:func:`_distinct_candidates`), its first leader-utility argmax,
        and every field read at that winner. The candidate set holds the
        exact maximiser, so no search refines it. Every step is row-local,
        so the arrays are bitwise the rows any other chunking produces.

        Small chunks whose widest population (the width a cold solve of
        just these rows pads to) is below 8 take the row-by-row form
        (see :data:`_SCALAR_SOLVE_MAX_ROWS`).
        """
        counts = self._counts[sl]
        if counts.shape[0] <= _SCALAR_SOLVE_MAX_ROWS and int(counts.max()) < 8:
            return self._solve_rows_scalar(sl)
        candidates, feasible = self._candidate_rows(sl)
        grid = _distinct_candidates(candidates)
        outcome = self._outcomes_trusted(grid, sl)
        best = np.argmax(outcome.msp_utilities, axis=1)
        winner = (np.arange(len(grid)), best)
        prices = grid[winner]
        price_cap_binding = np.abs(prices - self._max_prices[sl]) < 1e-9
        rows = feasible[:, np.newaxis]
        return {
            "prices": np.where(feasible, prices, np.nan),
            "demands": np.where(rows, outcome.allocations[winner], np.nan),
            "msp_utilities": np.where(
                feasible, outcome.msp_utilities[winner], np.nan
            ),
            "vmu_utilities": np.where(
                rows, outcome.vmu_utilities[winner], np.nan
            ),
            "capacity_binding": outcome.capacity_binding[winner] & feasible,
            "price_cap_binding": price_cap_binding & feasible,
            "feasible": feasible,
        }

    # ------------------------------------------------------------------ #
    # the stacked solve
    # ------------------------------------------------------------------ #
    def _validate_prices(self, prices: np.ndarray) -> np.ndarray:
        p = np.asarray(prices, dtype=float)
        if p.ndim not in (1, 2) or p.shape[0] != self.num_markets:
            raise ConfigurationError(
                f"expected prices of shape (M,) or (M, R) with M = "
                f"{self.num_markets}, got shape {p.shape}"
            )
        if p.size == 0:
            raise ConfigurationError("price array must not be empty")
        if np.any(~np.isfinite(p)) or np.any(p <= 0.0):
            raise ConfigurationError(
                f"prices must be finite and > 0, got {p!r}"
            )
        return p

    def outcomes_stacked(self, prices: np.ndarray) -> StackedOutcome:
        """Play one trading round in every market of the stack, vectorised.

        Args:
            prices: one posted price per market, shape ``(M,)``, or one
                price grid per market, shape ``(M, R)`` (market ``m``
                evaluated at each of its ``R`` prices).

        Returns:
            A :class:`StackedOutcome` equal — bitwise, padding stripped —
            to solving each market separately via
            ``markets[m].round_outcome(prices[m])`` (vector form) or
            ``markets[m].outcomes_batch(prices[m])`` (grid form).

        Raises:
            ConfigurationError: if ``prices`` has the wrong shape, holds a
                non-finite or non-positive entry, or holds a price so small
                that a demand ``α/p − D/SE`` overflows to infinity (the
                rationed allocation would then be NaN).
        """
        p = self._validate_prices(prices)
        self._sync_padding()
        outcome = self._outcomes_trusted(p)
        if not np.isfinite(outcome.demands).all():
            raise ConfigurationError(
                f"prices yield a non-finite demand (too close to 0), got {p!r}"
            )
        return outcome

    # ------------------------------------------------------------------ #
    # the equilibrium solve
    # ------------------------------------------------------------------ #
    def equilibria_stacked(self) -> StackedEquilibria:
        """Solve every market's Stackelberg equilibrium, stacked.

        The market-axis form of :meth:`StackelbergMarket.equilibrium`
        (which is itself the ``M = 1`` case of this solve, so the two
        cannot diverge). Per market: evaluate the exact leader utility at
        every closed-form candidate of Theorem 2 and take the argmax; the
        candidate set contains the exact maximiser over ``[C, p_max]``.
        Infeasible markets are masked in the result instead of aborting
        the solve (see :class:`StackedEquilibria`).

        The solve streams the stack in chunks of as many rows as fit the
        :data:`DEFAULT_CHUNK_BYTES` scratch budget, so peak memory scales
        with the chunk, never with ``M``. The result is memoised and
        shared with :meth:`equilibria_stacked_chunked`; only rows a
        :class:`MutableMarketStack` wrote since are ever solved again.
        """
        return self._solve()

    # perfbench/tracing.py times the bulk solve by wrapping this name.
    def equilibria_stacked_chunked(
        self, *, chunk_size: int
    ) -> StackedEquilibria:
        """:meth:`equilibria_stacked` in chunks of ``chunk_size`` rows.

        The result is **bitwise** the same for every chunk size (the solve
        is row-local end to end; see the module docstring), so this entry
        point shares the memo with :meth:`equilibria_stacked`: solving a
        stack twice — at any chunk size — returns the identical cached
        object.

        Raises:
            ConfigurationError: if ``chunk_size`` is below 1.
        """
        size = int(chunk_size)
        if size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        return self._solve(size)

    def _solve(self, size: int | None = None) -> StackedEquilibria:
        """The one equilibrium solve, in chunks of ``size`` rows
        (:func:`_chunk_rows` by default), behind every public entry point;
        each chunk's rows stream into ``(M,)``/``(M, N_max)`` result
        arrays.

        The first solve streams every row range into fresh arrays. Its
        result is memoised, and a later solve re-solves only the rows
        written since (never any on an immutable stack), gathered by index
        and spliced into a copy of the last result. The copy is re-padded
        if the padded width moved: a cold solve pads a feasible row with
        ``0.0`` and an infeasible one with ``nan``, so widened clean rows
        get exactly those, and narrowing drops only padding. Clean rows
        keep their scalar-equilibrium cache entries by object identity; a
        re-solved row's entry is dropped and rebuilt lazily.

        Every result's arrays are frozen: a caller writing through one
        would silently poison every later read of it. equilibrium(m)
        hands out read-only copies; whole-array consumers get read-only
        views.
        """
        cached = self._solved
        if cached is not None and not self._dirty:
            return cached
        self._sync_padding()
        num_markets, width = self.num_markets, self.max_vmus
        if size is None:
            size = _chunk_rows(width)
        if cached is None:
            out = _empty_result(num_markets, width)
            chunks = [
                slice(start, min(start + size, num_markets))
                for start in range(0, num_markets, size)
            ]
            resolved = num_markets
        else:
            out = {key: getattr(cached, key).copy() for key in _SOLVED_FIELDS}
            old = cached.demands.shape[1]
            if width != old:
                keep = min(width, old)
                for key in ("demands", "vmu_utilities"):
                    padded = np.zeros((num_markets, width), dtype=np.float64)
                    padded[:, :keep] = out[key][:, :keep]
                    padded[~cached.feasible, keep:] = np.nan
                    out[key] = padded
            rows = np.array(sorted(self._dirty), dtype=np.intp)
            chunks = [
                rows[start : start + size] for start in range(0, len(rows), size)
            ]
            resolved = len(rows)
        for chunk in chunks:
            for key, values in self._solve_rows(chunk).items():
                out[key][chunk] = values
        out.update(
            mask=self._mask.copy(),
            counts=self._counts.copy(),
            unit_costs=self._unit_costs.copy(),
        )
        for values in out.values():
            values.setflags(write=False)
        result = StackedEquilibria(**out)
        if cached is not None:
            result._scalar_cache.update(
                (m, equilibrium)
                for m, equilibrium in cached._scalar_cache.items()
                if m not in self._dirty
            )
        self._solve_count += 1
        self._rows_resolved += resolved
        self._dirty.clear()
        self._solved = result
        return result

    def _sync_padding(self) -> None:
        """Recompute the padding flags ``_ragged``/``_fullmask`` after row
        writes, before a read that uses them. Writes skip this O(M) pass,
        and a stack with no unsolved write has current flags, so an
        immutable stack pays nothing here."""
        if self._dirty:
            self._ragged = bool((self._counts != self.max_vmus).any())
            self._fullmask = not self._ragged


class MutableMarketStack(MarketStack):
    """Live market state: a :class:`MarketStack` whose rows can be written.

    A live pricing service mutates markets continuously (a VMU joins or
    leaves, fading drifts, a market is replaced), and paying a full
    ``M``-row re-solve for every point update would make the stack's
    memoised solve useless there. This class adds only the writes:

    - :meth:`join`, :meth:`leave`, :meth:`set_fading_gain` and
      :meth:`update_market` validate their one row, then write it into
      the columns in place and mark it dirty. The padded width is always
      the widest population, as in a cold stack of the current markets:
      a join past it widens the columns, and a row leaving the last
      widest population narrows them.
    - A written row's member market leaves the row cache; the row keeps
      its VMU profiles, config and link there instead, in one slot that
      later writes update in place, and :meth:`market` builds the member
      from those, never from the solve columns, so
      ``MarketStack(stack.markets)`` is an independent cold oracle.
    - :meth:`equilibria_live` is the shared solve, which re-solves *only*
      the dirty rows, straight from the live columns, and splices them
      into a copy of the last result.

    Exactness: a dirty row is solved at the padded width of a cold stack
    of the current markets, by the same row-local steps a cold solve
    runs, and a clean row's bits do not depend on the padded width (the
    chunking contract in the module docstring) — so
    :meth:`equilibria_live` is **bitwise-equal to a cold
    :meth:`MarketStack.equilibria_stacked` of the current markets at
    every step**.

    Mutation contract (what dirties what):

    - :meth:`update_market` / :meth:`join` / :meth:`leave` /
      :meth:`set_fading_gain` dirty exactly the one row they touch. Each
      takes a row index ``0 <= index < M`` (an ``int``; negative, bool
      and float indices raise :class:`~repro.errors.ConfigurationError`).
    - A rejected mutation raises :class:`~repro.errors.ConfigurationError`
      and changes nothing: no column, count or dirty row.
    - Clean rows are never re-solved, and their cached per-row scalar
      equilibria (:meth:`StackedEquilibria.equilibrium`) are carried over
      by object identity; a dirty row's entry is dropped and lazily
      rebuilt from the spliced arrays.
    - All handed-out results are frozen (read-only arrays), like the
      immutable stack's memo.
    """

    def row_index(self, index: int) -> int:
        """``index`` as a row of this stack.

        Raises:
            ConfigurationError: unless ``index`` is an ``int`` (not
                ``bool``) with ``0 <= index < M``.
        """
        return require_index("market index", index, len(self._counts))

    def _row(self, index: int) -> _Row:
        """Row ``index``'s description slot. A write updates it and stores
        it in the row cache, over the member, once the write validated."""
        member = self._members.get(index)
        if isinstance(member, list):
            return member
        if member is None:
            member = self.market(index)
        return [member.vmus, member.config, member.link]

    def update_market(self, index: int, market: StackelbergMarket) -> None:
        """Replace row ``index`` with ``market`` (dirties exactly that row)."""
        index = self.row_index(index)
        if not isinstance(market, StackelbergMarket):
            raise ConfigurationError(
                f"expected a StackelbergMarket, got {type(market).__name__}"
            )
        n, config = market.num_vmus, market.config
        if n > self.max_vmus:
            self._resize(n)
        for column, values in (
            (self._alphas, market._alphas),
            (self._data, market._data_units),
        ):
            column[index, :n] = values
            column[index, n:] = 1.0
        self._se[index] = market.spectral_efficiency
        self._unit_costs[index] = config.unit_cost
        self._max_prices[index] = config.max_price
        self._caps[index] = config.capacity_natural
        self._enforce[index] = config.enforce_capacity
        self._effective_caps[index] = (
            config.capacity_natural if config.enforce_capacity else np.inf
        )
        self._members[index] = market
        self._set_population(index, n)

    def join(self, index: int, vmu: VmuProfile) -> None:
        """A VMU joins market ``index`` (dirties that row).

        Raises:
            ConfigurationError: if ``vmu`` is not a :class:`VmuProfile`,
                or a VMU with its id is already in the market.
        """
        index = self.row_index(index)
        if not isinstance(vmu, VmuProfile):
            raise ConfigurationError(
                f"expected a VmuProfile, got {type(vmu).__name__}"
            )
        row = self._row(index)
        vmus = row[0]
        if any(v.vmu_id == vmu.vmu_id for v in vmus):
            raise ConfigurationError(
                f"VMU {vmu.vmu_id!r} is already in market {index}"
            )
        n = len(vmus)
        if n == self.max_vmus:
            self._resize(n + 1)
        self._alphas[index, n] = vmu.immersion_coef
        self._data[index, n] = vmu.data_units
        row[0] = (*vmus, vmu)
        self._members[index] = row
        self._set_population(index, n + 1)

    def leave(self, index: int, vmu_id: str) -> None:
        """VMU ``vmu_id`` leaves market ``index`` (dirties that row).

        Raises:
            ConfigurationError: if no such VMU is in the market, or it is
                the market's last one (a market needs ≥ 1 VMU).
        """
        index = self.row_index(index)
        row = self._row(index)
        vmus = row[0]
        slot = next(
            (j for j, v in enumerate(vmus) if v.vmu_id == vmu_id), None
        )
        if slot is None:
            raise ConfigurationError(f"no VMU {vmu_id!r} in market {index}")
        n = len(vmus)
        if n == 1:
            raise ConfigurationError(
                f"VMU {vmu_id!r} is the last member of market {index}; "
                "markets need at least one VMU"
            )
        # The later VMUs move up one slot, as in the market rebuilt
        # without the leaver, and the freed last slot becomes padding.
        for column in (self._alphas, self._data):
            column[index, slot : n - 1] = column[index, slot + 1 : n]
            column[index, n - 1] = 1.0
        row[0] = vmus[:slot] + vmus[slot + 1 :]
        self._members[index] = row
        self._set_population(index, n - 1)

    def set_fading_gain(self, index: int, fading_gain: float) -> None:
        """Channel-fading drift on market ``index``'s RSU link (dirties
        that row).

        Raises:
            ConfigurationError: unless ``fading_gain`` is finite and > 0
                and the link's spectral efficiency at it is too (a gain
                so small that ``log2(1 + SNR)`` rounds to 0 is rejected,
                as :class:`StackelbergMarket` rejects such a link).
        """
        index = self.row_index(index)
        row = self._row(index)
        link = row[2].with_fading_gain(fading_gain)
        self._se[index] = require_positive(
            "link spectral efficiency", link.spectral_efficiency
        )
        row[2] = link
        self._members[index] = row
        self._dirty.add(index)

    def _set_population(self, index: int, n: int) -> None:
        """Row ``index`` now holds ``n`` VMUs, whose ``α`` and ``D`` the
        caller wrote into the columns (padding ``1.0`` beyond them);
        update its mask and count and dirty it.

        The padded width follows the widest population, as in a cold
        stack: callers widen it before a row outgrows it, and it narrows
        here once no row fills it.
        """
        width = self.max_vmus
        vacated = self._counts[index] == width > n
        self._mask[index, :n] = True
        self._mask[index, n:] = False
        self._counts[index] = n
        self._dirty.add(index)
        if vacated and not (self._counts == width).any():
            self._resize(int(self._counts.max()))

    def _resize(self, width: int) -> None:
        """Re-pad the population columns to ``width`` slots (padding
        ``1.0`` and a ``False`` mask, as :meth:`_fill` pads)."""
        keep = min(width, self.max_vmus)
        alphas = np.ones((self.num_markets, width), dtype=np.float64)
        data = np.ones((self.num_markets, width), dtype=np.float64)
        alphas[:, :keep] = self._alphas[:, :keep]
        data[:, :keep] = self._data[:, :keep]
        self._alphas, self._data = alphas, data
        self._mask = np.arange(width) < self._counts[:, np.newaxis]

    def equilibria_live(self) -> StackedEquilibria:
        """Current equilibria of the stack, re-solving only dirty rows.

        The first call solves every row. Later calls solve the dirty rows
        from the live columns and splice them into the last result —
        bitwise-equal to a cold solve of the current markets (see the
        class docstring). This is the shared solve driver, called here
        directly rather than through :meth:`equilibria_stacked`, so
        perfbench's tracer times live re-solves apart from bulk solves.
        """
        # A live service reads the memo on every query, so a hit skips the
        # call into _solve.
        solved = self._solved
        if solved is None or self._dirty:
            solved = self._solve()
        return solved
