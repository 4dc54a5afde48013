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
  the per-market path evaluates (`core/utilities` grew the matching
  ``*_stacked`` forms);
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
One solve streams the stack through row ranges ("chunks"), so peak memory
is bounded by the chunk, not by ``M``: :meth:`MarketStack.equilibria_stacked`
runs it at the :data:`DEFAULT_CHUNK_BYTES` budget,
:meth:`MarketStack.equilibria_stacked_chunked` at an explicit one. Every
step — the Theorem-2 candidate matrix, its evaluation, the golden
refinement, the final outcome — is row-local (reductions run along the
population or candidate axis, never across markets), so every chunk size
gives bitwise the same rows. Each chunk evaluates the leader utility
through one scratch kernel (:meth:`_ChunkScratch.leader_utilities`). See
``sim/README.md`` for the budget semantics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.backend import xp

from repro.channel.ofdma import _rationing_rows
from repro.core.stackelberg import (
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
from repro.errors import ConfigurationError, InfeasibleMarketError
from repro.game.solvers import (
    golden_section_maximize,
    grid_then_golden_batch,
)

__all__ = [
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

_SCALAR_REFINE_MAX_ROWS = 8
"""Row-count ceiling for the scalar refinement fast path. The batched
golden loop costs a fixed ~50 sequential rounds of numpy dispatch no
matter how few rows it refines, so chunks at or below this many rows
refine row by row through the scalar :func:`golden_section_maximize`
instead — linear in rows, and bitwise the same sequence (see
:meth:`MarketStack._refine_rows_scalar`). The input size picks the path:
every ``M = 1`` solve (``StackelbergMarket.equilibrium()``) takes the
scalar one at about half the batched cost, and the live service's
dirty-row re-solves fall on both sides of the gate."""


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
    counts: xp.ndarray, *, ragged: bool
) -> list[tuple[int, xp.ndarray]] | None:
    """The ragged-reduction grouping of :func:`_per_market_totals`: one
    ``(n, member rows)`` pair per distinct population size, or ``None``
    when the full-width row sum already returns the per-market bits."""
    if not ragged:
        return None
    # xp.unique is sorted, so the group order is deterministic.
    return [(int(n), xp.flatnonzero(counts == n)) for n in xp.unique(counts)]


def _per_market_totals(
    values: xp.ndarray, groups: list[tuple[int, xp.ndarray]] | None
) -> xp.ndarray:
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
    totals = xp.empty(values.shape[:-1], dtype=xp.float64)
    for n, members in groups:
        totals[members] = values[members, ..., :n].sum(axis=-1)
    return totals


class _ChunkScratch:
    """The equilibrium solve's leader-utility kernel and its scratch.

    Allocated once per solve and reused by every chunk. The flat ``_band``
    buffer holds the widest ``(chunk, width, N_max)`` evaluation of the
    solve (best responses overwritten in place by allocations) and
    ``_scales`` its ``(chunk, width)`` rationing factors; every evaluation
    runs in a contiguous leading view of them, so no probe allocates
    band-sized arrays. :meth:`load` points the scratch at one row range
    and prepares what does not depend on the price — the row views, the
    ``D/SE`` ratio, the padding mask, the effective capacities, and the
    ragged-reduction grouping — once per chunk rather than once per probe
    (the golden refinement probes ~50 times in sequence).
    """

    def __init__(self, chunk_size: int, n_max: int) -> None:
        width = max(_REFINE_GRID_POINTS, 3 * n_max + 4)
        self._band = xp.empty(chunk_size * width * n_max, dtype=xp.float64)
        self._scales = xp.empty(chunk_size * width, dtype=xp.float64)
        self._ratio = xp.empty((chunk_size, n_max), dtype=xp.float64)
        self._pad = xp.empty((chunk_size, n_max), dtype=bool)

    def load(self, stack: "MarketStack", sl: slice) -> None:
        """Prepare the price-independent invariants of rows ``sl``."""
        alphas = stack._alphas[sl]
        num_rows = alphas.shape[0]
        self.alphas = alphas
        self.unit_costs = stack._unit_costs[sl]
        self.effective_caps = stack._effective_caps[sl]
        self.counts = stack._counts[sl]
        # The division the best-response kernel performs, hoisted: the
        # same operands give the same bits on every probe.
        self.ratio = xp.divide(
            stack._data[sl], stack._se[sl][:, xp.newaxis], out=self._ratio[:num_rows]
        )
        pad = xp.logical_not(stack._mask[sl], out=self._pad[:num_rows])
        # The row operands, broadcast per price rank: (m,) probes evaluate
        # an (m, N) band, (m, R) grids an (m, R, N) one.
        rows = (alphas, self.ratio, pad, self.effective_caps, self.unit_costs)
        self._operands = {1: rows, 2: tuple(a[:, xp.newaxis] for a in rows)}
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

    def _views(self, shape: tuple[int, ...]) -> tuple[xp.ndarray, xp.ndarray]:
        """Contiguous band ``shape + (N_max,)`` and scales ``shape`` views
        at the start of the scratch buffers."""
        size = math.prod(shape)
        n_max = self._ratio.shape[1]
        return (
            self._band[: size * n_max].reshape(*shape, n_max),
            self._scales[:size].reshape(shape),
        )

    def leader_utilities(self, prices: xp.ndarray) -> xp.ndarray:
        """Leader utilities of the loaded rows at prices ``(m,)`` (one per
        row) or ``(m, R)`` (a grid per row), in ``prices``' shape.

        Bitwise ``outcomes_stacked(prices).msp_utilities`` for these rows:
        every expression is the elementwise
        ``follower_best_response_stacked`` → ``proportional_rationing_stacked``
        → ``msp_utilities_stacked`` chain, evaluated in place in the
        scratch band with the input validation dropped — the stack
        validated its parameters at construction, and the solve's prices
        lie inside ``[C, p_max]``.
        """
        alphas, ratio, pad, caps, costs = self._operands[prices.ndim]
        band, scales = (
            self._probe_views if prices.ndim == 1 else self._views(prices.shape)
        )
        # b*_n = max(0, α_n/p − D_n/SE), padded slots zeroed.
        xp.divide(alphas, prices[..., xp.newaxis], out=band)
        xp.subtract(band, ratio, out=band)
        xp.maximum(band, 0.0, out=band)
        xp.copyto(band, 0.0, where=pad)
        demand_totals = _per_market_totals(band, self.groups)
        # Proportional rationing in place: the quotient is evaluated only
        # where totals exceed the capacity (the same bits as the
        # where-guarded scale expression); rows within capacity keep
        # exactly 1.0.
        scales.fill(1.0)
        xp.divide(caps, demand_totals, out=scales, where=demand_totals > caps)
        xp.multiply(band, scales[..., xp.newaxis], out=band)
        return (prices - costs) * _per_market_totals(band, self.groups)


@dataclass(frozen=True)
class StackedOutcome:
    """Outcomes of one stacked trading round across ``M`` different markets.

    Arrays are batched along axis 0 (one entry per market). With per-market
    price *grids* the arrays carry an extra round axis ``R`` after the
    market axis. Padded population slots (``mask == False``) hold zeros.
    """

    prices: xp.ndarray
    """Posted prices, shape ``(M,)`` or ``(M, R)``."""
    demands: xp.ndarray
    """Requested bandwidth, shape ``(M, N_max)`` or ``(M, R, N_max)``."""
    allocations: xp.ndarray
    """Granted bandwidth after per-market rationing (same shape)."""
    msp_utilities: xp.ndarray
    """Leader utility per market (and round), shape ``(M,)`` or ``(M, R)``."""
    vmu_utilities: xp.ndarray
    """Follower utilities (same shape as ``demands``)."""
    capacity_binding: xp.ndarray
    """Whether Σ demand hit the market's ``B_max`` (prices' shape, bool)."""
    mask: xp.ndarray
    """Valid-population mask, boolean shape ``(M, N_max)``."""
    counts: xp.ndarray
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
    def total_allocated(self) -> xp.ndarray:
        """Σ granted bandwidth per market (and round), prices' shape."""
        return self.allocations.sum(axis=-1)

    def total_vmu_utilities(self) -> xp.ndarray:
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

    prices: xp.ndarray
    """Equilibrium price per market, shape ``(M,)`` (``nan`` if infeasible)."""
    demands: xp.ndarray
    """Equilibrium bandwidth per VMU (natural units), shape ``(M, N_max)``."""
    msp_utilities: xp.ndarray
    """Leader utility at equilibrium, shape ``(M,)``."""
    vmu_utilities: xp.ndarray
    """Follower utilities at equilibrium, shape ``(M, N_max)``."""
    capacity_binding: xp.ndarray
    """Whether Σ demand hit the market's ``B_max``, boolean ``(M,)``."""
    price_cap_binding: xp.ndarray
    """Whether the equilibrium sits at ``p_max``, boolean ``(M,)``."""
    feasible: xp.ndarray
    """Whether the market admits profitable trade, boolean ``(M,)``."""
    mask: xp.ndarray
    """Valid-population mask, boolean shape ``(M, N_max)``."""
    counts: xp.ndarray
    """True population size per market, shape ``(M,)``."""
    unit_costs: xp.ndarray
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
    def total_bandwidths(self) -> xp.ndarray:
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

        Raises:
            InfeasibleMarketError: if the market admits no profitable
                trade — the identical semantics of the per-market
                :meth:`StackelbergMarket.equilibrium`.
        """
        if not bool(self.feasible[market_index]):
            raise InfeasibleMarketError(
                "every VMU's drop-out threshold is at or below the unit "
                f"cost C={float(self.unit_costs[market_index])}; no "
                "profitable trade exists"
            )
        index = int(market_index)
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


class MarketStack:
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
        num_markets = len(self._markets)
        counts = xp.fromiter(
            (m.num_vmus for m in self._markets),
            dtype=xp.int64,
            count=num_markets,
        )
        n_max = int(counts.max())
        # Padding value 1.0 keeps the padded slots' elementwise math finite;
        # the mask zeroes their demand before anything downstream sees it.
        # The mask's True slots are each row's leading prefix, so boolean
        # assignment (row-major) scatters the concatenated per-market
        # vectors into exactly the slots the per-market fill loop wrote.
        alphas = xp.ones((num_markets, n_max), dtype=xp.float64)
        data = xp.ones((num_markets, n_max), dtype=xp.float64)
        mask = xp.arange(n_max) < counts[:, xp.newaxis]
        alphas[mask] = xp.concatenate([m._alphas for m in self._markets])
        data[mask] = xp.concatenate([m._data_units for m in self._markets])
        self._counts = counts
        self._mask = mask
        self._alphas = alphas
        self._data = data
        self._ragged = bool((counts != n_max).any())
        # An all-valid mask (every market at full width N_max) lets the
        # stacked round skip its two masking ``xp.where`` passes — with no
        # padded slots they return the input values bit for bit.
        self._fullmask = bool(mask.all())
        self._se = xp.fromiter(
            (m.spectral_efficiency for m in self._markets),
            dtype=xp.float64,
            count=num_markets,
        )
        self._unit_costs = xp.fromiter(
            (m.config.unit_cost for m in self._markets),
            dtype=xp.float64,
            count=num_markets,
        )
        self._max_prices = xp.fromiter(
            (m.config.max_price for m in self._markets),
            dtype=xp.float64,
            count=num_markets,
        )
        self._caps = xp.fromiter(
            (m.config.capacity_natural for m in self._markets),
            dtype=xp.float64,
            count=num_markets,
        )
        self._enforce = xp.fromiter(
            (m.config.enforce_capacity for m in self._markets),
            dtype=bool,
            count=num_markets,
        )
        # Non-enforcing markets ration against an infinite capacity, which
        # leaves their rows scaled by exactly 1.0 (bitwise unchanged).
        # Static, so built once — outcomes_stacked runs every env round.
        self._effective_caps = xp.where(self._enforce, self._caps, xp.inf)
        # Solved equilibria, memoised per refine flag (markets and configs
        # are frozen, so a solve can never go stale). Every chunk size
        # returns the same bits, so every chunking shares the memo.
        self._equilibria: dict[bool, StackedEquilibria] = {}

    @classmethod
    def from_markets(
        cls, markets: Sequence[StackelbergMarket]
    ) -> "MarketStack":
        """Build a stack over ``markets`` (alias of the constructor, named
        for symmetry with ``VectorMigrationEnv.from_market``)."""
        return cls(markets)

    @classmethod
    def from_grid(
        cls,
        num_markets: int | None = None,
        *,
        rows: int | None = None,
        cols: int | None = None,
        block_m: float = 400.0,
        coverage_radius_m: float | None = None,
        speed_limit_mps: float = 13.9,
        vehicles_per_cell: float = 400.0,
        max_vmus: int = 6,
        target_aotm: float = 0.05,
        horizon_s: float = 3600.0,
        seed: int = 0,
    ) -> "MarketStack":
        """A city-scale stack: one migration market per RSU-grid junction.

        Lays out a Manhattan grid of RSU junctions, with the geometry
        derived analytically from the junction index (no road graph is
        built; :func:`repro.mobility.citygrid.city_coverage` is the graph
        view), derives each junction's migration-demand profile from the
        mobility models (handover rate of ``vehicles_per_cell`` vehicles
        crossing the cell at ``speed_limit_mps``), sizes the market's
        ``B_max`` via
        :func:`repro.mobility.demand.capacity_for_demand`, and samples the
        VMU population per cell. Each market is a pure function of the
        grid parameters and its junction index (per-index seeding), so a
        chunked/scheduled build of index range ``[lo, hi)`` produces the
        identical markets — see :mod:`repro.mobility.citygrid`.

        Pass either ``num_markets`` (grid shape derived, near-square) or an
        explicit ``rows × cols`` shape.
        """
        from repro.mobility.citygrid import CityGridSpec, city_markets

        spec = CityGridSpec.for_markets(
            num_markets,
            rows=rows,
            cols=cols,
            block_m=block_m,
            coverage_radius_m=coverage_radius_m,
            speed_limit_mps=speed_limit_mps,
            vehicles_per_cell=vehicles_per_cell,
            max_vmus=max_vmus,
            target_aotm=target_aotm,
            horizon_s=horizon_s,
            seed=seed,
        )
        return cls(city_markets(spec))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_markets

    @property
    def markets(self) -> tuple[StackelbergMarket, ...]:
        """The stacked member markets."""
        return self._markets

    def market(self, market_index: int) -> StackelbergMarket:
        """The ``market_index``-th member market."""
        return self._markets[market_index]

    @property
    def num_markets(self) -> int:
        """Stack width ``M``."""
        return len(self._markets)

    @property
    def max_vmus(self) -> int:
        """Widest population ``N_max`` (the padded trailing axis)."""
        return int(self._mask.shape[1])

    @property
    def counts(self) -> xp.ndarray:
        """True population size per market, shape ``(M,)`` (copy)."""
        return self._counts.copy()

    @property
    def mask(self) -> xp.ndarray:
        """Valid-population mask ``(M, N_max)`` (copy)."""
        return self._mask.copy()

    @property
    def immersion_coefs(self) -> xp.ndarray:
        """Padded ``α`` matrix ``(M, N_max)`` (copy)."""
        return self._alphas.copy()

    @property
    def data_units(self) -> xp.ndarray:
        """Padded ``D`` matrix ``(M, N_max)`` in natural units (copy)."""
        return self._data.copy()

    @property
    def spectral_efficiencies(self) -> xp.ndarray:
        """Per-market link SE ``(M,)`` (copy)."""
        return self._se.copy()

    @property
    def unit_costs(self) -> xp.ndarray:
        """Per-market transmission cost ``C`` ``(M,)`` (copy)."""
        return self._unit_costs.copy()

    @property
    def max_prices(self) -> xp.ndarray:
        """Per-market price ceiling ``p_max`` ``(M,)`` (copy)."""
        return self._max_prices.copy()

    @property
    def capacities_natural(self) -> xp.ndarray:
        """Per-market ``B_max`` in natural units ``(M,)`` (copy)."""
        return self._caps.copy()

    # ------------------------------------------------------------------ #
    # the stacked solve
    # ------------------------------------------------------------------ #
    def _validate_prices(self, prices: xp.ndarray) -> xp.ndarray:
        p = xp.asarray(prices, dtype=float)
        if p.ndim not in (1, 2) or p.shape[0] != self.num_markets:
            raise ConfigurationError(
                f"expected prices of shape (M,) or (M, R) with M = "
                f"{self.num_markets}, got shape {p.shape}"
            )
        if p.size == 0:
            raise ConfigurationError("price array must not be empty")
        if xp.any(~xp.isfinite(p)) or xp.any(p <= 0.0):
            raise ConfigurationError(
                f"prices must be finite and > 0, got {p!r}"
            )
        return p

    def outcomes_stacked(self, prices: xp.ndarray) -> StackedOutcome:
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
        """
        p = self._validate_prices(prices)
        return self._outcomes_trusted(p)

    def _outcomes_trusted(
        self, p: xp.ndarray, sl: slice = slice(None)
    ) -> StackedOutcome:
        """Body of :meth:`outcomes_stacked` for already-validated prices,
        over rows ``sl`` of the stack (``p`` holds those rows' prices).

        The vector environment calls this directly each round: its prices
        come out of its own ``[C, p_max]`` clamp, so they are finite and
        positive by construction and re-validating them every step is pure
        overhead on the training hot path. The equilibrium solve calls it
        per chunk for the outcome at the winning prices.
        """
        grid = p.ndim == 2
        row_mask = self._mask[sl]
        mask = row_mask[:, xp.newaxis, :] if grid else row_mask
        alphas, data, se = self._alphas[sl], self._data[sl], self._se[sl]
        caps, enforce = self._caps[sl], self._enforce[sl]
        counts = self._counts[sl]
        groups = _population_groups(counts, ragged=self._ragged)
        # Trusted-input kernels: the stack's static parameters were
        # validated once at construction, and ``p`` by the caller —
        # re-running the public wrappers' input checks every round is pure
        # overhead on this path (the vector env steps through here each
        # round).
        raw = _follower_best_response_rows(alphas, data, p, se)
        demands = raw if self._fullmask else xp.where(mask, raw, 0.0)
        demand_totals = _per_market_totals(demands, groups)
        allocations = _rationing_rows(
            demands, self._effective_caps[sl], demand_totals
        )
        caps_rows = caps[:, xp.newaxis] if grid else caps
        enforce_rows = enforce[:, xp.newaxis] if grid else enforce
        binding = enforce_rows & (demand_totals >= caps_rows * (1.0 - 1e-9))
        utilities = _msp_utilities_rows(
            p, self._unit_costs[sl], _per_market_totals(allocations, groups)
        )
        vmu_raw = _vmu_utilities_rows(alphas, data, allocations, p, se)
        follower_utilities = (
            vmu_raw if self._fullmask else xp.where(mask, vmu_raw, 0.0)
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
            self._unit_costs[:, xp.newaxis]
            + steps[:, xp.newaxis] * xp.arange(grid_points)
        )
        return self.outcomes_stacked(grids)

    # ------------------------------------------------------------------ #
    # the equilibrium solve
    # ------------------------------------------------------------------ #
    def _candidate_rows(self, sl: slice) -> tuple[xp.ndarray, xp.ndarray]:
        """Theorem 2's closed-form candidate prices for rows ``sl``.

        Vectorises :meth:`StackelbergMarket._segment_candidates` across the
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
        costs = self._unit_costs[sl][:, xp.newaxis]
        caps_price = self._max_prices[sl][:, xp.newaxis]
        se = self._se[sl][:, xp.newaxis]
        thresholds = row_alphas * se / row_data
        masked_t = xp.where(row_mask, thresholds, -xp.inf)
        feasible = masked_t.max(axis=1) > self._unit_costs[sl]

        # Prefix sums over (α, D) sorted by descending threshold: the
        # active set of any probe price is a prefix of this order.
        order = xp.argsort(-masked_t, axis=1, kind="stable")
        t_desc = xp.take_along_axis(masked_t, order, axis=1)
        alpha_prefix = xp.cumsum(
            xp.take_along_axis(
                xp.where(row_mask, row_alphas, 0.0), order, axis=1
            ),
            axis=1,
        )
        data_prefix = xp.cumsum(
            xp.take_along_axis(
                xp.where(row_mask, row_data, 0.0), order, axis=1
            ),
            axis=1,
        )

        inside = row_mask & (thresholds > costs) & (thresholds < caps_price)
        inner = xp.sort(xp.where(inside, thresholds, caps_price), axis=1)
        boundaries = xp.concatenate([costs, inner, caps_price], axis=1)
        low = boundaries[:, :-1]
        high = boundaries[:, 1:]
        probe = 0.5 * (low + high)
        active_counts = (t_desc[:, xp.newaxis, :] > probe[:, :, xp.newaxis]).sum(
            axis=2
        )
        has_active = active_counts > 0
        prefix_idx = xp.maximum(active_counts - 1, 0)
        alpha_sums = xp.take_along_axis(alpha_prefix, prefix_idx, axis=1)
        data_sums = xp.take_along_axis(data_prefix, prefix_idx, axis=1)
        p_unconstrained = xp.sqrt(costs * se * alpha_sums / data_sums)
        p_cap = alpha_sums / (self._caps[sl][:, xp.newaxis] + data_sums / se)
        unconstrained = xp.where(
            has_active, xp.clip(p_unconstrained, low, high), low
        )
        saturating = xp.where(
            has_active & self._enforce[sl][:, xp.newaxis],
            xp.clip(p_cap, low, high),
            low,
        )
        candidates = xp.concatenate(
            [boundaries, unconstrained, saturating], axis=1
        )
        return candidates, feasible

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

    def equilibria_stacked(
        self,
        *,
        refine: bool = True,
        warm_lows: xp.ndarray | None = None,
        warm_highs: xp.ndarray | None = None,
    ) -> StackedEquilibria:
        """Solve every market's Stackelberg equilibrium, stacked.

        The market-axis form of :meth:`StackelbergMarket.equilibrium`
        (which is itself the ``M = 1`` case of this solve, so the two
        cannot diverge). Per market: evaluate the exact leader utility at
        every closed-form candidate of Theorem 2, take the argmax, then —
        with ``refine`` — cross-check with a grid-then-golden-section
        search over ``[C, p_max]``; the better price wins. Infeasible
        markets are masked in the result instead of aborting the solve
        (see :class:`StackedEquilibria`).

        This is the :data:`DEFAULT_CHUNK_BYTES`-budget solve of
        :meth:`equilibria_stacked_chunked`: both run the one chunked
        solve, and every chunk size gives the same bits. Results are
        memoised per ``refine`` flag and shared with the chunked entry
        point — markets are immutable, so repeated solves of one stack are
        free.

        ``warm_lows``/``warm_highs`` (given together, shape ``(M,)``,
        ``refine`` only) warm-start the golden refinement per row — see
        :func:`repro.game.solvers.grid_then_golden_batch`. Warm results
        agree with the cold solve to refinement tolerance (not bitwise),
        so they are returned frozen but **never memoised**; rows with
        non-finite warm endpoints take the cold refinement path.
        """
        if warm_lows is None and warm_highs is None:
            return self._solve(refine)
        if not refine:
            raise ConfigurationError(
                "warm brackets only apply to the refined solve "
                "(refine=True)"
            )
        lows = xp.asarray(warm_lows, dtype=xp.float64)
        highs = xp.asarray(warm_highs, dtype=xp.float64)
        if lows.shape != (self.num_markets,) or highs.shape != lows.shape:
            raise ConfigurationError(
                "warm_lows and warm_highs must be given together, each of "
                f"shape ({self.num_markets},)"
            )
        return self._solve(refine, warm=(lows, highs))

    def equilibria_stacked_chunked(
        self,
        *,
        refine: bool = True,
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

        Shares the per-``refine`` memo with :meth:`equilibria_stacked`:
        solving a stack twice — at any chunk size — returns the identical
        cached object.
        """
        return self._solve(refine, chunk_size, chunk_bytes)

    def _solve(
        self,
        refine: bool,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
        warm: tuple[xp.ndarray, xp.ndarray] | None = None,
    ) -> StackedEquilibria:
        """The equilibrium solve, streamed in :meth:`resolve_chunk_size`
        chunks, behind both public entry points.

        One :class:`_ChunkScratch` serves every chunk, and each chunk's
        rows stream into preallocated ``(M,)``/``(M, N_max)`` result
        arrays. Warm brackets ``(lows, highs)`` are sliced per chunk.

        Cold results are memoised per ``refine`` flag, warm ones never.
        Either way the result's arrays are frozen: a caller writing
        through a memoised result would silently poison every later
        equilibrium() solve of this stack. equilibrium(m) hands out
        read-only copies; whole-array consumers get read-only views.
        """
        if warm is None:
            cached = self._equilibria.get(refine)
            if cached is not None:
                return cached
        size = self.resolve_chunk_size(
            chunk_size=chunk_size, chunk_bytes=chunk_bytes
        )
        num_markets, n_max = self.num_markets, self.max_vmus
        out = {
            "prices": xp.empty(num_markets, dtype=xp.float64),
            "demands": xp.empty((num_markets, n_max), dtype=xp.float64),
            "msp_utilities": xp.empty(num_markets, dtype=xp.float64),
            "vmu_utilities": xp.empty((num_markets, n_max), dtype=xp.float64),
            "capacity_binding": xp.empty(num_markets, dtype=bool),
            "price_cap_binding": xp.empty(num_markets, dtype=bool),
            "feasible": xp.empty(num_markets, dtype=bool),
        }
        scratch = _ChunkScratch(size, n_max)
        for start in range(0, num_markets, size):
            sl = slice(start, min(start + size, num_markets))
            rows_warm = None if warm is None else (warm[0][sl], warm[1][sl])
            chunk = self._solve_rows(sl, refine, scratch, rows_warm)
            for key, values in chunk.items():
                out[key][sl] = values
        result = _freeze_result(
            StackedEquilibria(
                mask=self._mask.copy(),
                counts=self._counts.copy(),
                unit_costs=self._unit_costs.copy(),
                **out,
            )
        )
        if warm is None:
            self._equilibria[refine] = result
        return result

    def _refine_rows_scalar(
        self, sl: slice, scratch: _ChunkScratch
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Golden refinement of a tiny row range, one scalar search per row.

        Bitwise replica of the cold ``grid_then_golden_batch`` call in
        :meth:`_solve_rows`, restructured for latency (see
        :data:`_SCALAR_REFINE_MAX_ROWS`): the coarse scan stays vectorised
        (same grid, argmax, and bracket expressions as ``scan_brackets``),
        then each row refines through the scalar
        :func:`golden_section_maximize` — the reference the batch is
        pinned against — with a pure-Python objective.

        Why the bits match: IEEE-754 arithmetic is identical between
        Python floats and numpy float64 scalars, the clamp ``d = 0.0 if
        d < 0.0`` matches ``xp.maximum(0.0, ·)`` (a ``-0.0`` demand is
        impossible: ``a - b`` with ``a, b >= 0`` never rounds to it), and
        the sequential Python sums match numpy's sequential reduction
        regime, which is why this path is gated on stack width < 8 —
        the same boundary :meth:`_ChunkScratch.load` documents.
        ``tests/test_core_equilibria_stacked.py`` pins equality across
        chunk sizes on both sides of the row gate.
        """
        low_v = self._unit_costs[sl]
        high_v = self._max_prices[sl]
        steps = (high_v - low_v) / (_REFINE_GRID_POINTS - 1)
        grids = (
            low_v[:, xp.newaxis]
            + steps[:, xp.newaxis] * xp.arange(_REFINE_GRID_POINTS)
        )
        values = scratch.leader_utilities(grids)
        best_idx = xp.argmax(values, axis=1)
        bracket_lows = low_v + xp.maximum(0, best_idx - 1) * steps
        bracket_highs = (
            low_v + xp.minimum(_REFINE_GRID_POINTS - 1, best_idx + 1) * steps
        )

        num_rows = bracket_lows.shape[0]
        prices = xp.empty(num_rows, dtype=xp.float64)
        utilities = xp.empty(num_rows, dtype=xp.float64)
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
                objective, float(bracket_lows[i]), float(bracket_highs[i])
            )
        return prices, utilities

    def _solve_rows(
        self,
        sl: slice,
        refine: bool,
        scratch: _ChunkScratch,
        warm: tuple[xp.ndarray, xp.ndarray] | None,
    ) -> dict[str, xp.ndarray]:
        """Equilibrium arrays for rows ``sl`` — one chunk of the solve.

        Candidate argmax, then (with ``refine``) the golden cross-check —
        warm-started from ``warm = (lows, highs)`` when given — then the
        full outcome at the winning prices. Every step is row-local, so
        the arrays are bitwise the rows any other chunking produces.
        """
        scratch.load(self, sl)
        candidates, feasible = self._candidate_rows(sl)
        candidate_values = scratch.leader_utilities(candidates)
        best_idx = xp.argmax(candidate_values, axis=1)[:, xp.newaxis]
        best_prices = xp.take_along_axis(candidates, best_idx, axis=1)[:, 0]
        best_values = xp.take_along_axis(candidate_values, best_idx, axis=1)[
            :, 0
        ]
        if refine:
            if (
                warm is None
                and feasible.shape[0] <= _SCALAR_REFINE_MAX_ROWS
                and self.max_vmus < 8
            ):
                refined_prices, refined_values = self._refine_rows_scalar(
                    sl, scratch
                )
            else:
                refined_prices, refined_values = grid_then_golden_batch(
                    scratch.leader_utilities,
                    self._unit_costs[sl],
                    self._max_prices[sl],
                    bracket_lows=None if warm is None else warm[0],
                    bracket_highs=None if warm is None else warm[1],
                )
            best_prices = xp.where(
                refined_values > best_values, refined_prices, best_prices
            )
        outcome = self._outcomes_trusted(best_prices, sl)
        price_cap_binding = xp.abs(best_prices - self._max_prices[sl]) < 1e-9
        rows = feasible[:, xp.newaxis]
        return {
            "prices": xp.where(feasible, best_prices, xp.nan),
            "demands": xp.where(rows, outcome.allocations, xp.nan),
            "msp_utilities": xp.where(feasible, outcome.msp_utilities, xp.nan),
            "vmu_utilities": xp.where(rows, outcome.vmu_utilities, xp.nan),
            "capacity_binding": outcome.capacity_binding & feasible,
            "price_cap_binding": price_cap_binding & feasible,
            "feasible": feasible,
        }


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


class MutableMarketStack:
    """A dirty-set wrapper over :class:`MarketStack` for *live* market state.

    The immutable stack memoises its equilibria forever — correct because
    its markets can never change. A live pricing service mutates markets
    continuously (a VMU joins, fading drifts, demand shifts), and paying a
    full ``M``-row re-solve for every point update is what makes the memo
    useless there. This wrapper turns the memo into an invalidation-aware
    cache: point updates mark exactly their row dirty, and
    :meth:`equilibria_live` re-solves *only* the dirty rows — as their own
    sub-stack through the existing chunked candidate-matrix path — then
    splices them into the cached :class:`StackedEquilibria`.

    Exactness: every operation of the stacked solve is row-local and
    padding-width invariant (the chunking contract in the module
    docstring), so a dirty row solved inside the small sub-stack gets
    bitwise the same numbers it would get inside a cold full solve of the
    mutated stack — :meth:`equilibria_live` is **bitwise-equal to a cold
    :meth:`MarketStack.equilibria_stacked` at every step**. The one
    exception is opt-in: ``warm_start=True`` restarts each dirty row's
    golden refinement from a one-grid-cell bracket around its previous
    equilibrium price (falling back to the cold scan when the old optimum
    is stale), which agrees to refinement tolerance instead of bitwise.

    Mutation contract (what dirties what):

    - :meth:`update_market` / :meth:`join` / :meth:`leave` /
      :meth:`set_fading_gain` dirty exactly the one row they touch, under
      *both* refine flags (a mutation invalidates every cached view of
      that row).
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
        self._markets = markets
        self._counts = xp.fromiter(
            (m.num_vmus for m in markets), dtype=xp.int64, count=len(markets)
        )
        self._chunk_size = chunk_size
        self._chunk_bytes = chunk_bytes
        # Dirty rows per refine flag: a mutation invalidates the row under
        # both flags; each flag's solve clears only its own pending set.
        self._dirty: dict[bool, set[int]] = {True: set(), False: set()}
        self._solved: dict[bool, StackedEquilibria] = {}
        self._stack: MarketStack | None = None
        self._solve_count = 0
        self._rows_resolved = 0

    @classmethod
    def from_grid(cls, num_markets: int, **kwargs) -> "MutableMarketStack":
        """A live wrapper over a city-grid stack (see
        :meth:`MarketStack.from_grid` for the parameters)."""
        chunk_size = kwargs.pop("chunk_size", None)
        chunk_bytes = kwargs.pop("chunk_bytes", None)
        base = MarketStack.from_grid(num_markets, **kwargs)
        return cls(
            base.markets, chunk_size=chunk_size, chunk_bytes=chunk_bytes
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._markets)

    @property
    def num_markets(self) -> int:
        """Stack width ``M`` (fixed; rows mutate, the set of rows doesn't)."""
        return len(self._markets)

    @property
    def markets(self) -> tuple[StackelbergMarket, ...]:
        """The current member markets (snapshot tuple)."""
        return tuple(self._markets)

    def market(self, market_index: int) -> StackelbergMarket:
        """The current ``market_index``-th member market."""
        return self._markets[market_index]

    @property
    def stack(self) -> MarketStack:
        """An immutable :class:`MarketStack` over the *current* markets.

        Rebuilt lazily after any mutation — the cold-solve reference the
        live path is pinned against, and the full-stack backing of the
        first :meth:`equilibria_live` call.
        """
        if self._stack is None:
            self._stack = MarketStack(self._markets)
        return self._stack

    def dirty_indices(self, *, refine: bool = True) -> tuple[int, ...]:
        """Rows awaiting re-solve under ``refine`` (sorted)."""
        return tuple(sorted(self._dirty[refine]))

    @property
    def solve_count(self) -> int:
        """Stacked solves performed so far (full or sub-stack)."""
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
    def _touch(self, index: int) -> None:
        for pending in self._dirty.values():
            pending.add(index)
        self._stack = None

    def _market_at(self, index: int) -> StackelbergMarket:
        index = int(index)
        if not 0 <= index < len(self._markets):
            raise ConfigurationError(
                f"market index {index} out of range for stack of "
                f"{len(self._markets)}"
            )
        return self._markets[index]

    def update_market(self, index: int, market: StackelbergMarket) -> None:
        """Replace row ``index`` with ``market`` (dirties exactly that row)."""
        index = int(index)
        self._market_at(index)
        if not isinstance(market, StackelbergMarket):
            raise ConfigurationError(
                f"expected a StackelbergMarket, got {type(market).__name__}"
            )
        self._markets[index] = market
        self._counts[index] = market.num_vmus
        self._touch(index)

    def join(self, index: int, vmu) -> None:
        """A VMU joins market ``index`` (dirties that row)."""
        market = self._market_at(index)
        self.update_market(index, market.with_vmus((*market.vmus, vmu)))

    def leave(self, index: int, vmu_id: str) -> None:
        """VMU ``vmu_id`` leaves market ``index`` (dirties that row).

        Raises:
            ConfigurationError: if no such VMU is in the market, or it is
                the market's last one (a market needs ≥ 1 VMU).
        """
        market = self._market_at(index)
        kept = tuple(v for v in market.vmus if v.vmu_id != vmu_id)
        if len(kept) == len(market.vmus):
            raise ConfigurationError(
                f"no VMU {vmu_id!r} in market {index}"
            )
        if len(kept) == 0:
            raise ConfigurationError(
                f"VMU {vmu_id!r} is the last member of market {index}; "
                "markets need at least one VMU"
            )
        self.update_market(index, market.with_vmus(kept))

    def set_fading_gain(self, index: int, fading_gain: float) -> None:
        """Channel-fading drift on market ``index``'s RSU link (dirties
        that row)."""
        market = self._market_at(index)
        self.update_market(
            index, market.with_link(market.link.with_fading_gain(fading_gain))
        )

    # ------------------------------------------------------------------ #
    # the incremental solve
    # ------------------------------------------------------------------ #
    def equilibria_live(
        self, *, refine: bool = True, warm_start: bool = False
    ) -> StackedEquilibria:
        """Current equilibria of the stack, re-solving only dirty rows.

        First call (or after every row was dirtied): a cold full solve
        through :meth:`MarketStack.equilibria_stacked_chunked` with the
        wrapper's chunk knobs. Later calls solve the dirty rows as their
        own sub-stack and splice the rows into the cached result —
        bitwise-equal to a cold solve of the mutated stack (see the class
        docstring; ``warm_start=True`` trades that for
        tolerance-level agreement and a scan-free refinement, and is
        ignored when ``refine=False`` — there is no refinement to warm).
        """
        dirty = self._dirty[refine]
        cached = self._solved.get(refine)
        if cached is not None and not dirty:
            return cached
        if cached is None or len(dirty) == len(self._markets):
            result = self.stack.equilibria_stacked_chunked(
                refine=refine,
                chunk_size=self._chunk_size,
                chunk_bytes=self._chunk_bytes,
            )
            self._rows_resolved += len(self._markets)
        else:
            indices = sorted(dirty)
            sub = MarketStack([self._markets[i] for i in indices])
            if warm_start and refine:
                warm_lows, warm_highs = self._warm_brackets(
                    cached, indices, sub
                )
                rows = sub.equilibria_stacked(
                    refine=True, warm_lows=warm_lows, warm_highs=warm_highs
                )
            else:
                rows = sub.equilibria_stacked_chunked(
                    refine=refine,
                    chunk_size=self._chunk_size,
                    chunk_bytes=self._chunk_bytes,
                )
            result = self._splice(cached, indices, rows)
            self._rows_resolved += len(indices)
        self._solve_count += 1
        dirty.clear()
        self._solved[refine] = result
        return result

    @staticmethod
    def _warm_brackets(
        cached: StackedEquilibria, indices: list[int], sub: MarketStack
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Warm refinement brackets for the dirty rows: ± one coarse-grid
        cell around each row's previous equilibrium price.

        One cell matches the width of the bracket a cold scan hands the
        golden refinement, so a warm row that stayed near its old optimum
        refines with the same resolution at none of the scan cost. Rows
        that were previously infeasible carry ``nan`` prices, which the
        solver treats as "no warm bracket" (cold path).
        """
        previous = cached.prices[xp.asarray(indices, dtype=xp.intp)]
        steps = (sub._max_prices - sub._unit_costs) / (
            _REFINE_GRID_POINTS - 1
        )
        return previous - steps, previous + steps

    def _splice(
        self,
        cached: StackedEquilibria,
        indices: list[int],
        rows: StackedEquilibria,
    ) -> StackedEquilibria:
        """A new frozen result: ``cached`` with ``indices`` replaced by the
        sub-stack solution ``rows``.

        Clean rows are copied bit for bit; if the stack's padded width
        ``N_max`` changed (a join/leave moved the widest population), clean
        rows are re-padded to the new width with exactly the values a cold
        solve writes there — ``0.0`` on feasible rows, ``nan`` on
        infeasible ones — so the splice stays bitwise-indistinguishable
        from the cold solve.
        """
        counts = self._counts.copy()
        num_markets = len(self._markets)
        n_max = int(counts.max())
        old_n_max = cached.demands.shape[1]
        prices = cached.prices.copy()
        msp_utilities = cached.msp_utilities.copy()
        capacity_binding = cached.capacity_binding.copy()
        price_cap_binding = cached.price_cap_binding.copy()
        feasible = cached.feasible.copy()
        unit_costs = cached.unit_costs.copy()
        if n_max == old_n_max:
            demands = cached.demands.copy()
            vmu_utilities = cached.vmu_utilities.copy()
        else:
            demands = xp.zeros((num_markets, n_max), dtype=xp.float64)
            vmu_utilities = xp.zeros((num_markets, n_max), dtype=xp.float64)
            keep = min(n_max, old_n_max)
            demands[:, :keep] = cached.demands[:, :keep]
            vmu_utilities[:, :keep] = cached.vmu_utilities[:, :keep]
            if n_max > old_n_max:
                # Widened columns of infeasible rows hold nan, not 0.0.
                demands[~feasible, old_n_max:] = xp.nan
                vmu_utilities[~feasible, old_n_max:] = xp.nan
        idx = xp.asarray(indices, dtype=xp.intp)
        sub_width = rows.demands.shape[1]
        prices[idx] = rows.prices
        msp_utilities[idx] = rows.msp_utilities
        capacity_binding[idx] = rows.capacity_binding
        price_cap_binding[idx] = rows.price_cap_binding
        feasible[idx] = rows.feasible
        unit_costs[idx] = rows.unit_costs
        demands[idx[:, xp.newaxis], xp.arange(sub_width)] = rows.demands
        vmu_utilities[idx[:, xp.newaxis], xp.arange(sub_width)] = (
            rows.vmu_utilities
        )
        if sub_width < n_max:
            tail = xp.where(rows.feasible[:, xp.newaxis], 0.0, xp.nan)
            demands[idx[:, xp.newaxis], xp.arange(sub_width, n_max)] = tail
            vmu_utilities[idx[:, xp.newaxis], xp.arange(sub_width, n_max)] = (
                tail
            )
        result = StackedEquilibria(
            prices=prices,
            demands=demands,
            msp_utilities=msp_utilities,
            vmu_utilities=vmu_utilities,
            capacity_binding=capacity_binding,
            price_cap_binding=price_cap_binding,
            feasible=feasible,
            mask=xp.arange(n_max) < counts[:, xp.newaxis],
            counts=counts,
            unit_costs=unit_costs,
        )
        # Clean rows keep their scalar-equilibrium cache entries by object
        # identity; dirty rows' entries are dropped (rebuilt lazily).
        dirty = set(indices)
        for m, equilibrium in cached._scalar_cache.items():
            if m not in dirty:
                result._scalar_cache[m] = equilibrium
        return _freeze_result(result)
