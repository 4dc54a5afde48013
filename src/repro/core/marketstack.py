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
There is one solve mode: per market, the argmax over Theorem 2's
closed-form candidates, cross-checked by a grid-then-golden search (the
better price wins). One solve streams the stack through row ranges
("chunks"), so peak memory is bounded by the chunk, not by ``M``:
:meth:`MarketStack.equilibria_stacked` runs it at the
:data:`DEFAULT_CHUNK_BYTES` budget,
:meth:`MarketStack.equilibria_stacked_chunked` at an explicit one. Every
step — the Theorem-2 candidate matrix, its evaluation, the golden
refinement, the final outcome — is row-local (reductions run along the
population or candidate axis, never across markets), so every chunk size
gives bitwise the same rows. Each chunk evaluates the leader utility
through one scratch kernel (:meth:`_ChunkScratch.leader_utilities`). See
``sim/README.md`` for the budget semantics.

Live state
----------
:class:`MutableMarketStack` keeps the same padded columns live: each
mutation writes its one row in place, and
:meth:`MutableMarketStack.equilibria_live` re-solves only the dirty rows,
gathered by index through the same row-local solve, then splices them
into the cached result — bitwise a cold solve of the current markets.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
from repro.game.solvers import (
    golden_section_maximize,
    grid_then_golden_batch,
)
from repro.utils.validation import require_index, require_positive

__all__ = [
    "MarketColumns",
    "MarketStack",
    "MutableMarketStack",
    "StackedOutcome",
    "StackedEquilibria",
    "DEFAULT_CHUNK_BYTES",
    "resolve_chunk_size",
    "solve_scratch_bytes_per_market",
]

DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024
"""Default scratch-memory budget of a chunked solve (64 MiB)."""

_REFINE_GRID_POINTS = 256
"""Coarse-scan width of ``grid_then_golden_batch`` — the widest per-market
price batch the equilibrium solve evaluates (together with the
``3·N_max + 4``-wide candidate matrix)."""

_SCALAR_REFINE_MAX_ROWS = 24
"""Row-count ceiling for the scalar refinement fast path. The batched
golden loop costs a fixed ~50 sequential rounds of numpy dispatch no
matter how few rows it refines, so chunks at or below this many rows
refine row by row through the scalar :func:`golden_section_maximize`
instead — linear in rows, and bitwise the same sequence (see
:meth:`_PaddedStack._refine_rows_scalar`). The input size picks the path:
every ``M = 1`` solve (``StackelbergMarket.equilibrium()``) and every
live re-solve of up to this many dirty rows takes the scalar one, and
bulk solves take the batch.

The gate sits at the measured crossover. Median time per refinement of
``rows`` city markets (``N_max`` 6, rows drawn at random from a
1000-market grid, 60 draws each; 2-core x86 host, numpy 2, Python 3.11):

====  ======  =======
rows  scalar  batched
====  ======  =======
1     0.18 ms 2.12 ms
8     0.87 ms 2.44 ms
16    1.64 ms 2.82 ms
24    2.46 ms 3.15 ms
32    3.48 ms 3.64 ms
48    4.09 ms 3.28 ms
64    6.52 ms 4.82 ms
====  ======  =======
"""


def solve_scratch_bytes_per_market(n_max: int) -> int:
    """Estimated peak scratch bytes one market contributes to a chunk.

    Sized for the widest evaluation of the solve: a ``(width, N_max)``
    best-response/allocation band where ``width = max(256, 3·N_max + 4)``,
    the transient grouped-reduction copies of that band (ragged stacks),
    the ``(width,)``-shaped grid/total/scale temporaries, and the
    candidate-matrix intermediates. Deliberately conservative so a chunk
    sized from ``chunk_bytes`` stays inside the budget including numpy's
    untracked temporaries.
    """
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    width = max(_REFINE_GRID_POINTS, 3 * n_max + 4)
    return 8 * (3 * width * n_max + 12 * width + 32 * n_max + 128)


def resolve_chunk_size(
    num_markets: int,
    n_max: int,
    *,
    chunk_size: int | None = None,
    chunk_bytes: int | None = None,
) -> int:
    """Rows per chunk for a chunked solve of an ``(M, N_max)`` stack.

    An explicit ``chunk_size`` wins over ``chunk_bytes``; with neither set
    the :data:`DEFAULT_CHUNK_BYTES` budget applies. The result is clamped
    to ``[1, num_markets]``, so any positive value is safe to pass.
    """
    if chunk_size is not None:
        size = int(chunk_size)
        if size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        return min(size, num_markets)
    budget = DEFAULT_CHUNK_BYTES if chunk_bytes is None else int(chunk_bytes)
    if budget < 1:
        raise ConfigurationError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    per_market = solve_scratch_bytes_per_market(n_max)
    return max(1, min(num_markets, budget // per_market))


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


class _ChunkScratch:
    """The equilibrium solve's leader-utility kernel and its scratch.

    Allocated once per solve and reused by every chunk (a
    :class:`MutableMarketStack` keeps one across its dirty-row re-solves,
    rebuilt when a re-solve outgrows it or the padded width moves). The
    flat ``_band`` buffer holds the widest ``(chunk, width, N_max)``
    evaluation of the solve (best responses overwritten in place by
    allocations) and ``_scales`` its ``(chunk, width)`` rationing factors;
    every evaluation runs in a contiguous leading view of them, so no
    probe allocates band-sized arrays. :meth:`load` points the scratch at
    one row range (or gathered rows) and prepares what does not depend on the price — the row views, the
    ``D/SE`` ratio, the padding mask, the effective capacities, and the
    ragged-reduction grouping — once per chunk rather than once per probe
    (the golden refinement probes ~50 times in sequence).
    """

    def __init__(self, chunk_size: int, n_max: int) -> None:
        width = max(_REFINE_GRID_POINTS, 3 * n_max + 4)
        self._band = np.empty(chunk_size * width * n_max, dtype=np.float64)
        self._scales = np.empty(chunk_size * width, dtype=np.float64)
        self._ratio = np.empty((chunk_size, n_max), dtype=np.float64)
        self._pad = np.empty((chunk_size, n_max), dtype=bool)

    def fits(self, chunk_size: int, n_max: int) -> bool:
        """Whether chunks of up to ``chunk_size`` rows of an ``N_max``-wide
        stack run in this scratch."""
        rows, width = self._ratio.shape
        return rows >= chunk_size and width == n_max

    def load(self, stack: "_PaddedStack", sl: slice | np.ndarray) -> None:
        """Prepare the price-independent invariants of rows ``sl`` (a row
        range or an index array)."""
        alphas = stack._alphas[sl]
        num_rows = alphas.shape[0]
        self.alphas = alphas
        self.unit_costs = stack._unit_costs[sl]
        self.effective_caps = stack._effective_caps[sl]
        self.counts = stack._counts[sl]
        # The division the best-response kernel performs, hoisted: the
        # same operands give the same bits on every probe.
        self.ratio = np.divide(
            stack._data[sl], stack._se[sl][:, np.newaxis], out=self._ratio[:num_rows]
        )
        pad = np.logical_not(stack._mask[sl], out=self._pad[:num_rows])
        # The row operands, broadcast per price rank: (m,) probes evaluate
        # an (m, N) band, (m, R) grids an (m, R, N) one.
        rows = (alphas, self.ratio, pad, self.effective_caps, self.unit_costs)
        self._operands = {1: rows, 2: tuple(a[:, np.newaxis] for a in rows)}
        # The ~50 sequential golden probes all have shape (m,): build
        # their views once per chunk.
        self._probe_views = self._views((num_rows,))
        # Full-width row sums are bitwise-equal to the per-market ``[:n]``
        # reductions when the row holds non-negative values with trailing
        # ``+0.0`` padding AND both widths reduce in numpy's sequential
        # regime (width < 8): each padded add is then an exact identity
        # (no partial sum is ``-0.0`` — demands are ``maximum(0, a-b)``
        # with ``a, b >= 0``, which never rounds to ``-0.0``). At width 8
        # numpy switches to an 8-accumulator pairwise kernel that
        # associates differently, so wider ragged stacks keep the grouped
        # reduction. ``tests/test_core_solve_kernel.py`` pins both sides
        # of this boundary against the validating ``outcomes_stacked``.
        self.groups = _population_groups(
            self.counts, ragged=stack._ragged and stack.max_vmus >= 8
        )

    def _views(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous band ``shape + (N_max,)`` and scales ``shape`` views
        at the start of the scratch buffers."""
        size = math.prod(shape)
        n_max = self._ratio.shape[1]
        return (
            self._band[: size * n_max].reshape(*shape, n_max),
            self._scales[:size].reshape(shape),
        )

    def leader_utilities(self, prices: np.ndarray) -> np.ndarray:
        """Leader utilities of the loaded rows at prices ``(m,)`` (one per
        row) or ``(m, R)`` (a grid per row), in ``prices``' shape.

        Bitwise ``outcomes_stacked(prices).msp_utilities`` for these rows:
        every expression is the elementwise
        ``_follower_best_response_rows`` → ``_rationing_rows`` →
        ``_msp_utilities_rows`` chain, evaluated in place in the scratch
        band — the stack validated its parameters at construction, and the
        solve's prices lie inside ``[C, p_max]``.
        """
        alphas, ratio, pad, caps, costs = self._operands[prices.ndim]
        band, scales = (
            self._probe_views if prices.ndim == 1 else self._views(prices.shape)
        )
        # b*_n = max(0, α_n/p − D_n/SE), padded slots zeroed.
        np.divide(alphas, prices[..., np.newaxis], out=band)
        np.subtract(band, ratio, out=band)
        np.maximum(band, 0.0, out=band)
        np.copyto(band, 0.0, where=pad)
        demand_totals = _per_market_totals(band, self.groups)
        # Proportional rationing in place: the quotient is evaluated only
        # where totals exceed the capacity (the same bits as the
        # where-guarded scale expression); rows within capacity keep
        # exactly 1.0.
        scales.fill(1.0)
        np.divide(caps, demand_totals, out=scales, where=demand_totals > caps)
        np.multiply(band, scales[..., np.newaxis], out=band)
        return (prices - costs) * _per_market_totals(band, self.groups)


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

    def total_vmu_utilities(self) -> np.ndarray:
        """Σ U_n per market (and round), prices' shape.

        Reduces each market over its *own* population (not the padded row),
        so ragged stacks agree bitwise with per-market ``vmu_utilities.sum()``
        — padded zeros are exact but would associate differently inside
        numpy's pairwise reduction.
        """
        ragged = bool((self.counts != self.mask.shape[1]).any())
        return _per_market_totals(
            self.vmu_utilities, _population_groups(self.counts, ragged=ragged)
        )

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
    """The :meth:`_PaddedStack._fill` columns of ``markets``.

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


class _PaddedStack:
    """The padded ``(M, N_max)`` solve state of a stack of markets, and the
    row-local equilibrium solve over it.

    :class:`MarketStack` fills the state once and never changes it;
    :class:`MutableMarketStack` keeps it live, writing one row per
    mutation. The solve helpers take their rows ``sl`` as a row range or
    an index array: every step is row-local, so a row's bits do not
    depend on which other rows it is solved with.
    """

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
        self._fullmask = bool(mask.all())
        self._se = se
        self._unit_costs = unit_costs
        self._max_prices = max_prices
        self._caps = caps
        self._enforce = enforce
        # Non-enforcing markets ration against an infinite capacity, which
        # leaves their rows scaled by exactly 1.0 (bitwise unchanged).
        # Built with the columns — outcomes_stacked runs every env round.
        self._effective_caps = np.where(enforce, caps, np.inf)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_markets

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
        per chunk for the outcome at the winning prices.
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

    def _refine_rows_scalar(
        self, sl: slice | np.ndarray, scratch: _ChunkScratch
    ) -> tuple[np.ndarray, np.ndarray]:
        """Golden refinement of a small set of rows, one scalar search per row.

        Bitwise replica of the ``grid_then_golden_batch`` call in
        :meth:`_solve_rows`, restructured for latency (see
        :data:`_SCALAR_REFINE_MAX_ROWS`): the coarse scan stays vectorised
        (same grid, argmax, and bracket expressions as the batch),
        then each row refines through the scalar
        :func:`golden_section_maximize` — the reference the batch is
        pinned against — with a pure-Python objective.

        Why the bits match: IEEE-754 arithmetic is identical between
        Python floats and numpy float64 scalars, the clamp ``d = 0.0 if
        d < 0.0`` matches ``np.maximum(0.0, ·)`` (a ``-0.0`` demand is
        impossible: ``a - b`` with ``a, b >= 0`` never rounds to it), and
        the sequential Python sums match numpy's sequential reduction
        regime, which is why this path is gated on the rows' widest
        population being < 8 — the same boundary
        :meth:`_ChunkScratch.load` documents.
        ``tests/test_core_solve_kernel.py`` pins it bitwise against the
        batch at every row count to past the gate, and
        ``tests/test_core_equilibria_stacked.py`` pins equality across
        chunk sizes on both sides of it.
        """
        low_v = self._unit_costs[sl]
        high_v = self._max_prices[sl]
        steps = (high_v - low_v) / (_REFINE_GRID_POINTS - 1)
        grids = (
            low_v[:, np.newaxis]
            + steps[:, np.newaxis] * np.arange(_REFINE_GRID_POINTS)
        )
        values = scratch.leader_utilities(grids)
        best_idx = np.argmax(values, axis=1)
        lows = low_v + np.maximum(0, best_idx - 1) * steps
        highs = (
            low_v + np.minimum(_REFINE_GRID_POINTS - 1, best_idx + 1) * steps
        )

        num_rows = lows.shape[0]
        prices = np.empty(num_rows, dtype=np.float64)
        utilities = np.empty(num_rows, dtype=np.float64)
        for i in range(num_rows):
            n = int(scratch.counts[i])
            pairs = list(
                zip(scratch.alphas[i, :n].tolist(), scratch.ratio[i, :n].tolist())
            )
            cap = float(scratch.effective_caps[i])
            cost = float(scratch.unit_costs[i])

            def objective(
                p: float, pairs=pairs, cap=cap, cost=cost
            ) -> float:
                total = 0.0
                demands = []
                append = demands.append
                for alpha, ratio in pairs:
                    d = alpha / p - ratio
                    if d < 0.0:
                        d = 0.0
                    append(d)
                    total += d
                scale = cap / total if total > cap else 1.0
                served = 0.0
                for d in demands:
                    served += d * scale
                return (p - cost) * served

            prices[i], utilities[i] = golden_section_maximize(
                objective, float(lows[i]), float(highs[i])
            )
        return prices, utilities

    def _solve_rows(
        self, sl: slice | np.ndarray, scratch: _ChunkScratch
    ) -> dict[str, np.ndarray]:
        """Equilibrium arrays for rows ``sl`` — one chunk of the solve.

        Candidate argmax, then the golden cross-check, then the full
        outcome at the winning prices. Every step is row-local, so the
        arrays are bitwise the rows any other chunking produces.

        The cross-check takes the scalar path when the chunk is small
        and the widest population among its rows — the width a cold solve
        of just these rows pads to — is below 8 (see
        :data:`_SCALAR_REFINE_MAX_ROWS`).
        """
        scratch.load(self, sl)
        candidates, feasible = self._candidate_rows(sl)
        candidate_values = scratch.leader_utilities(candidates)
        best_idx = np.argmax(candidate_values, axis=1)[:, np.newaxis]
        best_prices = np.take_along_axis(candidates, best_idx, axis=1)[:, 0]
        best_values = np.take_along_axis(candidate_values, best_idx, axis=1)[
            :, 0
        ]
        if (
            feasible.shape[0] <= _SCALAR_REFINE_MAX_ROWS
            and int(scratch.counts.max()) < 8
        ):
            refined_prices, refined_values = self._refine_rows_scalar(
                sl, scratch
            )
        else:
            refined_prices, refined_values = grid_then_golden_batch(
                scratch.leader_utilities,
                self._unit_costs[sl],
                self._max_prices[sl],
            )
        best_prices = np.where(
            refined_values > best_values, refined_prices, best_prices
        )
        outcome = self._outcomes_trusted(best_prices, sl)
        price_cap_binding = np.abs(best_prices - self._max_prices[sl]) < 1e-9
        rows = feasible[:, np.newaxis]
        return {
            "prices": np.where(feasible, best_prices, np.nan),
            "demands": np.where(rows, outcome.allocations, np.nan),
            "msp_utilities": np.where(feasible, outcome.msp_utilities, np.nan),
            "vmu_utilities": np.where(rows, outcome.vmu_utilities, np.nan),
            "capacity_binding": outcome.capacity_binding & feasible,
            "price_cap_binding": price_cap_binding & feasible,
            "feasible": feasible,
        }


class MarketStack(_PaddedStack):
    """A stack of ``M`` (possibly heterogeneous) Stackelberg markets.

    Stacks per-market parameters into padded ``(M, N_max)`` matrices once
    at construction; :meth:`outcomes_stacked` then solves all ``M`` markets
    at ``M`` different prices (or ``M`` whole price grids) in one numpy
    pass. See the module docstring for the bitwise exactness contract and
    :meth:`equilibria_stacked` for the (memory-bounded) equilibrium solve.
    """

    def __init__(self, markets: Sequence[StackelbergMarket]) -> None:
        if len(markets) == 0:
            raise ConfigurationError("market stack needs at least one market")
        self._markets = tuple(markets)
        self._fill(**_market_columns(self._markets))
        # The solved equilibria, memoised (markets and configs are frozen,
        # so a solve can never go stale). Every chunk size returns the
        # same bits, so every chunking shares the memo.
        self._equilibria: StackedEquilibria | None = None

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
        stack._markets = None
        stack._columns = columns
        stack._members = {}
        stack._fill(
            counts=columns.counts,
            alphas=columns.immersion_coefs,
            data=columns.data_units,
            se=columns.spectral_efficiencies,
            unit_costs=columns.unit_costs,
            max_prices=columns.max_prices,
            caps=columns.max_bandwidths / columns.bandwidth_report_scales,
            enforce=columns.enforce_capacity,
        )
        stack._equilibria = None
        return stack

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def markets(self) -> tuple[StackelbergMarket, ...]:
        """The stacked member markets (built on first access when the stack
        came from :meth:`from_columns`)."""
        if self._markets is None:
            self._markets = tuple(
                self.market(m) for m in range(self.num_markets)
            )
        return self._markets

    def market(self, market_index: int) -> StackelbergMarket:
        """The ``market_index``-th member market (built on first access
        when the stack came from :meth:`from_columns`)."""
        if self._markets is not None:
            return self._markets[market_index]
        index = range(self.num_markets)[market_index]
        member = self._members.get(index)
        if member is None:
            member = self._members[index] = self._columns.market(index)
        return member

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
        outcome = self._outcomes_trusted(p)
        if not np.isfinite(outcome.demands).all():
            raise ConfigurationError(
                f"prices yield a non-finite demand (too close to 0), got {p!r}"
            )
        return outcome

    def leader_landscapes(self, grid_points: int = 256) -> StackedOutcome:
        """Every market's full leader landscape as one stacked solve.

        Each market gets its own uniform ``grid_points``-point grid over
        its feasible interval ``[C_m, p_max_m]`` — the whole Fig.-3-style
        market grid evaluated in a single ``(M, R, N)`` pass. The grid
        rows are the elementwise ``low + step·arange`` expression of
        :func:`repro.game.solvers.uniform_price_grid`, built for all
        markets in one broadcast (bitwise-identical rows, no per-market
        loop).
        """
        if grid_points < 2:
            raise ConfigurationError(
                f"grid_points must be >= 2, got {grid_points}"
            )
        steps = (self._max_prices - self._unit_costs) / (grid_points - 1)
        grids = (
            self._unit_costs[:, np.newaxis]
            + steps[:, np.newaxis] * np.arange(grid_points)
        )
        return self.outcomes_stacked(grids)

    # ------------------------------------------------------------------ #
    # the equilibrium solve
    # ------------------------------------------------------------------ #
    def resolve_chunk_size(
        self,
        *,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
    ) -> int:
        """Rows per chunk a chunked solve of this stack would use
        (see the module-level :func:`resolve_chunk_size`)."""
        return resolve_chunk_size(
            self.num_markets,
            self.max_vmus,
            chunk_size=chunk_size,
            chunk_bytes=chunk_bytes,
        )

    def equilibria_stacked(self) -> StackedEquilibria:
        """Solve every market's Stackelberg equilibrium, stacked.

        The market-axis form of :meth:`StackelbergMarket.equilibrium`
        (which is itself the ``M = 1`` case of this solve, so the two
        cannot diverge). Per market: evaluate the exact leader utility at
        every closed-form candidate of Theorem 2, take the argmax, then
        cross-check with a grid-then-golden-section search over
        ``[C, p_max]``; the better price wins. Infeasible markets are
        masked in the result instead of aborting the solve (see
        :class:`StackedEquilibria`).

        This is the :data:`DEFAULT_CHUNK_BYTES`-budget solve of
        :meth:`equilibria_stacked_chunked`: both run the one chunked
        solve, and every chunk size gives the same bits. The result is
        memoised and shared with the chunked entry point — markets are
        immutable, so repeated solves of one stack are free.
        """
        return self._solve()

    def equilibria_stacked_chunked(
        self,
        *,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
    ) -> StackedEquilibria:
        """:meth:`equilibria_stacked` at an explicit memory budget.

        Partitions the stack into chunks of :meth:`resolve_chunk_size`
        rows (explicit ``chunk_size`` wins over the ``chunk_bytes`` scratch
        budget; neither set uses :data:`DEFAULT_CHUNK_BYTES`, which is
        :meth:`equilibria_stacked`). Peak memory scales with the chunk,
        never with ``M``, and the result is **bitwise** the same for every
        chunk size (the solve is row-local end to end; see the module
        docstring).

        Shares the memo with :meth:`equilibria_stacked`: solving a stack
        twice — at any chunk size — returns the identical cached object.
        """
        return self._solve(chunk_size, chunk_bytes)

    def _solve(
        self,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
    ) -> StackedEquilibria:
        """The equilibrium solve, streamed in :meth:`resolve_chunk_size`
        chunks, behind both public entry points.

        One :class:`_ChunkScratch` serves every chunk, and each chunk's
        rows stream into preallocated ``(M,)``/``(M, N_max)`` result
        arrays.

        The memoised result's arrays are frozen: a caller writing through
        it would silently poison every later equilibrium() solve of this
        stack. equilibrium(m) hands out read-only copies; whole-array
        consumers get read-only views.
        """
        if self._equilibria is not None:
            return self._equilibria
        size = self.resolve_chunk_size(
            chunk_size=chunk_size, chunk_bytes=chunk_bytes
        )
        num_markets, n_max = self.num_markets, self.max_vmus
        out = _empty_result(num_markets, n_max)
        scratch = _ChunkScratch(size, n_max)
        for start in range(0, num_markets, size):
            sl = slice(start, min(start + size, num_markets))
            chunk = self._solve_rows(sl, scratch)
            for key, values in chunk.items():
                out[key][sl] = values
        self._equilibria = _freeze_result(
            StackedEquilibria(
                mask=self._mask.copy(),
                counts=self._counts.copy(),
                unit_costs=self._unit_costs.copy(),
                **out,
            )
        )
        return self._equilibria


def _freeze_result(result: StackedEquilibria) -> StackedEquilibria:
    """Mark every backing array of a solved result read-only (in place).

    Shared by the immutable stack's memo and the live splice path — all
    handed-out :class:`StackedEquilibria` are frozen, so stale writes
    through a cached result are impossible anywhere.
    """
    for values in (
        result.prices,
        result.demands,
        result.msp_utilities,
        result.vmu_utilities,
        result.capacity_binding,
        result.price_cap_binding,
        result.feasible,
        result.mask,
        result.counts,
        result.unit_costs,
    ):
        values.setflags(write=False)
    return result


class MutableMarketStack(_PaddedStack):
    """Live market state: padded columns written in place, re-solved by
    dirty row.

    The immutable :class:`MarketStack` memoises its equilibria forever —
    correct because its markets can never change. A live pricing service
    mutates markets continuously (a VMU joins or leaves, fading drifts, a
    market is replaced), and paying a full ``M``-row re-solve for every
    point update is what makes that memo useless there. This stack keeps
    the same padded solve state live instead:

    - :meth:`join`, :meth:`leave`, :meth:`set_fading_gain` and
      :meth:`update_market` validate their one row, then write it into
      the columns in place. The padded width is always the widest
      population, as in a cold stack of the current markets: a join past
      it widens the columns, and a row leaving the last widest
      population narrows them.
    - :meth:`equilibria_live` re-solves *only* the dirty rows, straight
      from the live columns through the one row-local solve and one
      persistent :class:`_ChunkScratch`, and splices them into the cached
      :class:`StackedEquilibria`. The splice writes only the dirty rows.
      It copies a result array first only because the cached one was
      handed out, and handed-out results stay frozen.
    - Beside the columns, each row keeps its VMU profiles, its
      :class:`MarketConfig` and its :class:`RsuLink`. :attr:`markets` and
      :meth:`market` build members lazily from those, never from the
      solve columns, so ``MarketStack(list(stack.markets))`` is an
      independent cold oracle.

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

    def __init__(
        self,
        markets: Sequence[StackelbergMarket],
        *,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
    ) -> None:
        markets = list(markets)
        if len(markets) == 0:
            raise ConfigurationError("market stack needs at least one market")
        self._fill(**_market_columns(markets))
        # Each row's description, and its member market once one is built.
        self._vmus = [m.vmus for m in markets]
        self._configs = [m.config for m in markets]
        self._links = [m.link for m in markets]
        self._members: list[StackelbergMarket | None] = markets
        self._chunk_size = chunk_size
        self._chunk_bytes = chunk_bytes
        # Rows mutated since the last solve, and that solve's result.
        self._dirty: set[int] = set()
        self._solved: StackedEquilibria | None = None
        self._scratch: _ChunkScratch | None = None
        self._solve_count = 0
        self._rows_resolved = 0

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def markets(self) -> tuple[StackelbergMarket, ...]:
        """The current member markets (snapshot tuple)."""
        return tuple(self.market(m) for m in range(self.num_markets))

    def market(self, market_index: int) -> StackelbergMarket:
        """The current ``market_index``-th member market, built from the
        row's profiles, config and link on first access after a mutation
        (:meth:`update_market`'s market is kept as given)."""
        index = range(self.num_markets)[market_index]
        member = self._members[index]
        if member is None:
            member = self._members[index] = StackelbergMarket(
                self._vmus[index],
                config=self._configs[index],
                link=self._links[index],
            )
        return member

    def dirty_indices(self) -> tuple[int, ...]:
        """Rows awaiting re-solve (sorted)."""
        return tuple(sorted(self._dirty))

    @property
    def solve_count(self) -> int:
        """Solves performed so far (the first full one, then one per
        :meth:`equilibria_live` call that found dirty rows)."""
        return self._solve_count

    @property
    def rows_resolved(self) -> int:
        """Total market rows solved across all solves — the work an
        incremental path actually did (a cold path would pay
        ``solve_count · M``)."""
        return self._rows_resolved

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #
    def row_index(self, index: int) -> int:
        """``index`` as a row of this stack.

        Raises:
            ConfigurationError: unless ``index`` is an ``int`` (not
                ``bool``) with ``0 <= index < M``.
        """
        return require_index("market index", index, len(self._vmus))

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
        self._configs[index] = config
        self._links[index] = market.link
        self._set_population(index, market.vmus)
        self._members[index] = market

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
        vmus = self._vmus[index]
        if any(v.vmu_id == vmu.vmu_id for v in vmus):
            raise ConfigurationError(
                f"VMU {vmu.vmu_id!r} is already in market {index}"
            )
        n = len(vmus)
        if n == self.max_vmus:
            self._resize(n + 1)
        self._alphas[index, n] = vmu.immersion_coef
        self._data[index, n] = vmu.data_units
        self._set_population(index, (*vmus, vmu))

    def leave(self, index: int, vmu_id: str) -> None:
        """VMU ``vmu_id`` leaves market ``index`` (dirties that row).

        Raises:
            ConfigurationError: if no such VMU is in the market, or it is
                the market's last one (a market needs ≥ 1 VMU).
        """
        index = self.row_index(index)
        vmus = self._vmus[index]
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
        self._set_population(index, vmus[:slot] + vmus[slot + 1 :])

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
        link = self._links[index].with_fading_gain(fading_gain)
        self._se[index] = require_positive(
            "link spectral efficiency", link.spectral_efficiency
        )
        self._links[index] = link
        self._members[index] = None
        self._dirty.add(index)

    def _set_population(
        self, index: int, vmus: tuple[VmuProfile, ...]
    ) -> None:
        """Row ``index`` now holds ``vmus``, whose ``α`` and ``D`` the
        caller wrote into the columns (padding ``1.0`` beyond them);
        update its mask, count and profiles and dirty it.

        The padded width follows the widest population, as in a cold
        stack: callers widen it before a row outgrows it, and it narrows
        here once no row fills it.
        """
        n, width = len(vmus), self.max_vmus
        vacated = self._counts[index] == width > n
        self._mask[index, :n] = True
        self._mask[index, n:] = False
        self._counts[index] = n
        self._vmus[index] = vmus
        self._members[index] = None
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

    # ------------------------------------------------------------------ #
    # the incremental solve
    # ------------------------------------------------------------------ #
    def equilibria_live(self) -> StackedEquilibria:
        """Current equilibria of the stack, re-solving only dirty rows.

        The first call solves every row. Later calls solve the dirty rows
        from the live columns and splice them into the cached result —
        bitwise-equal to a cold solve of the current markets (see the
        class docstring). The rows solved stream through chunks of
        :func:`resolve_chunk_size` rows under the stack's chunk knobs.
        """
        cached = self._solved
        if cached is not None and not self._dirty:
            return cached
        width = self.max_vmus
        if cached is None:
            rows = np.arange(self.num_markets)
        else:
            rows = np.array(sorted(self._dirty), dtype=np.intp)
        self._ragged = bool((self._counts != width).any())
        self._fullmask = not self._ragged
        size = resolve_chunk_size(
            len(rows),
            width,
            chunk_size=self._chunk_size,
            chunk_bytes=self._chunk_bytes,
        )
        scratch = self._scratch
        if scratch is None or not scratch.fits(size, width):
            scratch = _ChunkScratch(size, width)
        if cached is not None:
            # Kept for the dirty-row re-solves to come; the first solve's
            # scratch spans a whole chunk of the stack and is dropped.
            self._scratch = scratch
        out = self._writable_result(cached, width)
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            for key, values in self._solve_rows(chunk, scratch).items():
                out[key][chunk] = values
        result = _freeze_result(
            StackedEquilibria(
                mask=self._mask.copy(),
                counts=self._counts.copy(),
                unit_costs=self._unit_costs.copy(),
                **out,
            )
        )
        if cached is not None:
            # Clean rows keep their scalar-equilibrium cache entries by
            # object identity; dirty rows' entries are dropped (rebuilt
            # lazily).
            for m, equilibrium in cached._scalar_cache.items():
                if m not in self._dirty:
                    result._scalar_cache[m] = equilibrium
        self._rows_resolved += len(rows)
        self._solve_count += 1
        self._dirty.clear()
        self._solved = result
        return result

    def _writable_result(
        self, cached: StackedEquilibria | None, width: int
    ) -> dict[str, np.ndarray]:
        """The solved-field arrays a solve writes its rows into.

        Fresh arrays for the first solve. Otherwise copies of ``cached``'s
        arrays — it was handed out, so it stays frozen — re-padded if the
        padded width moved since: a cold solve pads a feasible row with
        ``0.0`` and an infeasible one with ``nan``, so widened clean rows
        get exactly those, and narrowing drops only padding.
        """
        if cached is None:
            return _empty_result(self.num_markets, width)
        out = {key: getattr(cached, key).copy() for key in _SOLVED_FIELDS}
        old = cached.demands.shape[1]
        if width != old:
            keep = min(width, old)
            for key in ("demands", "vmu_utilities"):
                padded = np.zeros((self.num_markets, width), dtype=np.float64)
                padded[:, :keep] = out[key][:, :keep]
                padded[~cached.feasible, keep:] = np.nan
                out[key] = padded
        return out
