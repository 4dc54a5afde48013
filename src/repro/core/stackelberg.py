"""The AoTM-based Stackelberg market (Problems 1 and 2 of the paper).

The :class:`StackelbergMarket` binds a VMU population to an RSU link and the
MSP's market parameters, and answers every question the rest of the library
asks about the game:

- one trading round at a price or a price vector: follower demands
  (Eq. 8), B_max rationing and both stages' utilities (Eqs. 2 and 4),
  through the ``M = 1`` case of
  :meth:`repro.core.marketstack.MarketStack.outcomes_stacked` and its
  one demand → rationing → utility chain (see
  :mod:`repro.core.utilities`);
- the follower drop-out thresholds and the leader's utility landscape
  (Eq. 9 generalised to the constrained case);
- the unique Stackelberg equilibrium (Theorems 1-2), the best of the
  closed-form candidates per active set.

Units: the market consumes VMU data sizes in natural data units (100 MB)
and works with natural bandwidth internally; reported bandwidth multiplies
by ``bandwidth_report_scale`` to match the paper's axes (DESIGN.md §3).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.channel.link import RsuLink, paper_link
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError
from repro.game.solvers import uniform_price_grid
from repro.utils.validation import require_positive

__all__ = [
    "MarketConfig",
    "StackelbergEquilibrium",
    "MarketOutcome",
    "PriceBatchOutcome",
    "StackelbergMarket",
    "uniform_price_grid",
]


@dataclass(frozen=True)
class MarketConfig:
    """MSP-side market parameters (Problem 2 constraints).

    Attributes:
        unit_cost: unit transmission cost ``C``.
        max_price: price ceiling ``p_max``.
        max_bandwidth: sellable bandwidth ``B_max`` in *market* units.
        bandwidth_report_scale: market units per natural bandwidth unit.
        enforce_capacity: if False the ``B_max`` constraint is ignored
            (useful for isolating the unconstrained closed form in tests).
    """

    unit_cost: float = constants.UNIT_TRANSMISSION_COST
    max_price: float = constants.MAX_PRICE
    max_bandwidth: float = constants.MAX_BANDWIDTH
    bandwidth_report_scale: float = constants.BANDWIDTH_REPORT_SCALE
    enforce_capacity: bool = True

    def __post_init__(self) -> None:
        require_positive("unit_cost", self.unit_cost)
        require_positive("max_price", self.max_price)
        require_positive("max_bandwidth", self.max_bandwidth)
        require_positive("bandwidth_report_scale", self.bandwidth_report_scale)
        if self.unit_cost > self.max_price:
            raise ConfigurationError(
                f"unit_cost ({self.unit_cost}) exceeds max_price "
                f"({self.max_price}); the price interval [C, p_max] is empty"
            )

    @property
    def capacity_natural(self) -> float:
        """``B_max`` converted to natural bandwidth units."""
        return self.max_bandwidth / self.bandwidth_report_scale


@dataclass(frozen=True)
class MarketOutcome:
    """Everything observable after one trading round at a posted price."""

    price: float
    demands: np.ndarray
    """Requested bandwidth per VMU (natural units, before rationing)."""
    allocations: np.ndarray
    """Granted bandwidth per VMU (natural units, after B_max rationing)."""
    msp_utility: float
    vmu_utilities: np.ndarray
    capacity_binding: bool

    @property
    def total_allocated(self) -> float:
        """Σ granted bandwidth (natural units)."""
        return float(self.allocations.sum())


@dataclass(frozen=True)
class PriceBatchOutcome:
    """Per-price outcomes of one vectorised market evaluation.

    Every array is batched along axis 0 (one row per posted price): the
    result of playing ``P`` independent trading rounds in a single numpy
    pass. ``row(i)`` extracts a scalar :class:`MarketOutcome` view, which is
    bit-identical to ``round_outcome(prices[i])`` because the scalar path
    delegates here with ``P = 1``.
    """

    prices: np.ndarray
    """Posted prices, shape ``(P,)``."""
    demands: np.ndarray
    """Requested bandwidth per price and VMU, shape ``(P, N)``."""
    allocations: np.ndarray
    """Granted bandwidth after B_max rationing, shape ``(P, N)``."""
    msp_utilities: np.ndarray
    """Leader utility per price, shape ``(P,)``."""
    vmu_utilities: np.ndarray
    """Follower utilities per price, shape ``(P, N)``."""
    capacity_binding: np.ndarray
    """Whether Σ demand hit ``B_max``, boolean shape ``(P,)``."""

    def __len__(self) -> int:
        return int(self.prices.shape[0])

    @property
    def total_allocated(self) -> np.ndarray:
        """Σ granted bandwidth per price (natural units), shape ``(P,)``."""
        return self.allocations.sum(axis=-1)

    def row(self, index: int) -> MarketOutcome:
        """The ``index``-th price's outcome as a scalar :class:`MarketOutcome`."""
        return MarketOutcome(
            price=float(self.prices[index]),
            demands=self.demands[index].copy(),
            allocations=self.allocations[index].copy(),
            msp_utility=float(self.msp_utilities[index]),
            vmu_utilities=self.vmu_utilities[index].copy(),
            capacity_binding=bool(self.capacity_binding[index]),
        )

    @property
    def best_index(self) -> int:
        """Index of the price with the highest leader utility (first on ties)."""
        return int(np.argmax(self.msp_utilities))

    def best(self) -> MarketOutcome:
        """The outcome of the price with the highest leader utility."""
        return self.row(self.best_index)

    @classmethod
    def from_outcomes(
        cls, outcomes: Sequence[MarketOutcome]
    ) -> "PriceBatchOutcome":
        """Stack scalar outcomes into one batch.

        The bridge the sequential paths (reference landscape loop, the
        memoised policy-evaluation loop) use to hand results back in the
        engine's batched shape.
        """
        return cls(
            prices=np.array([o.price for o in outcomes]),
            demands=np.stack([o.demands for o in outcomes]),
            allocations=np.stack([o.allocations for o in outcomes]),
            msp_utilities=np.array([o.msp_utility for o in outcomes]),
            vmu_utilities=np.stack([o.vmu_utilities for o in outcomes]),
            capacity_binding=np.array([o.capacity_binding for o in outcomes]),
        )


@dataclass(frozen=True)
class StackelbergEquilibrium:
    """The unique Stackelberg equilibrium of the instantiated market."""

    price: float
    demands: np.ndarray
    """Equilibrium bandwidth per VMU (natural units)."""
    msp_utility: float
    vmu_utilities: np.ndarray
    capacity_binding: bool
    price_cap_binding: bool

    @property
    def total_bandwidth(self) -> float:
        """Σ b*_n in natural units."""
        return float(self.demands.sum())

    @property
    def total_vmu_utility(self) -> float:
        """Σ U_n at equilibrium."""
        return float(self.vmu_utilities.sum())


class StackelbergMarket:
    """The AoTM-based Stackelberg game between one MSP and N VMUs."""

    def __init__(
        self,
        vmus: Sequence[VmuProfile],
        *,
        config: MarketConfig | None = None,
        link: RsuLink | None = None,
    ) -> None:
        if len(vmus) == 0:
            raise ConfigurationError("market needs at least one VMU")
        self._vmus = tuple(vmus)
        self._config = config if config is not None else MarketConfig()
        self._link = link if link is not None else paper_link()
        # A fading gain small enough rounds log2(1 + SNR) to 0, and every
        # best response divides by the spectral efficiency.
        self._spectral_efficiency = require_positive(
            "link spectral efficiency", self._link.spectral_efficiency
        )
        self._alphas = np.array([v.immersion_coef for v in vmus], dtype=float)
        self._data_units = np.array([v.data_units for v in vmus], dtype=float)
        self._stack = None  # lazy M = 1 MarketStack behind outcomes_batch

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def vmus(self) -> tuple[VmuProfile, ...]:
        """The follower population."""
        return self._vmus

    @property
    def config(self) -> MarketConfig:
        """Market parameters."""
        return self._config

    @property
    def link(self) -> RsuLink:
        """The RSU-to-RSU migration link."""
        return self._link

    @property
    def num_vmus(self) -> int:
        """Population size N."""
        return len(self._vmus)

    @property
    def spectral_efficiency(self) -> float:
        """``log2(1 + SNR)`` of the link."""
        return self._spectral_efficiency

    @property
    def immersion_coefs(self) -> np.ndarray:
        """``α_n`` vector (copy)."""
        return self._alphas.copy()

    @property
    def data_units(self) -> np.ndarray:
        """``D_n`` vector in natural data units (copy)."""
        return self._data_units.copy()

    def to_market_units(self, bandwidth_natural: float | np.ndarray):
        """Convert natural bandwidth to the paper's reported units."""
        return bandwidth_natural * self._config.bandwidth_report_scale

    # ------------------------------------------------------------------ #
    # follower stage
    # ------------------------------------------------------------------ #
    def dropout_thresholds(self) -> np.ndarray:
        """Per-VMU price above which the best response hits zero:
        ``t_n = α_n · SE / D_n``."""
        return self._alphas * self.spectral_efficiency / self._data_units

    def _as_price_batch(self, prices: np.ndarray) -> np.ndarray:
        batch = np.asarray(prices, dtype=float)
        if batch.ndim != 1:
            raise ConfigurationError(
                f"expected a price vector of shape (P,), got shape {batch.shape}"
            )
        if batch.size == 0:
            raise ConfigurationError("price vector must not be empty")
        if np.any(~np.isfinite(batch)) or np.any(batch <= 0.0):
            raise ConfigurationError(
                f"prices must be finite and > 0, got {batch!r}"
            )
        return batch

    def as_stack(self):
        """This market as a (cached) ``M = 1``
        :class:`repro.core.marketstack.MarketStack`."""
        if self._stack is None:
            from repro.core.marketstack import MarketStack

            self._stack = MarketStack([self])
        return self._stack

    def outcomes_batch(self, prices: np.ndarray) -> PriceBatchOutcome:
        """Play one trading round per entry of a price vector, vectorised.

        Equivalent to ``[round_outcome(p) for p in prices]`` but evaluated
        in a single numpy pass over the ``(P, N)`` best-response matrix:
        the demands, B_max rationing, leader utility, and follower
        utilities of all ``P`` candidate prices come out of one call. This
        is the engine behind the leader's landscape scan, the scalar
        :meth:`round_outcome`, and the welfare planner's vector objective.

        Since the market-stack refactor this is the ``M = 1`` broadcast
        case of :meth:`repro.core.marketstack.MarketStack.outcomes_stacked`
        — the single-market price batch is one row of the stacked grid
        solve, so the two paths run the identical numpy operations and
        cannot diverge.
        """
        batch = self._as_price_batch(prices)
        stacked = self.as_stack().outcomes_stacked(batch[np.newaxis, :])
        return stacked.market_rows(0)

    def round_outcome(self, price: float) -> MarketOutcome:
        """Play one full trading round at a posted ``price``.

        Thin scalar wrapper over :meth:`outcomes_batch` with ``P = 1``, so
        scalar and batched evaluation share one code path (and therefore
        agree bitwise, row for row).
        """
        if price <= 0.0 or not math.isfinite(price):
            raise ConfigurationError(f"price must be finite and > 0, got {price!r}")
        return self.outcomes_batch(np.array([float(price)])).row(0)

    # ------------------------------------------------------------------ #
    # leader stage
    # ------------------------------------------------------------------ #
    def msp_utility(self, price: float) -> float:
        """Leader utility at ``price`` with followers playing Eq. (8)."""
        return self.round_outcome(price).msp_utility

    def msp_utilities(self, prices: np.ndarray) -> np.ndarray:
        """Leader utility per entry of a price vector, shape ``(P,)``."""
        return self.outcomes_batch(prices).msp_utilities

    def leader_landscape(
        self, *, grid_points: int = 256, low: float | None = None, high: float | None = None
    ) -> PriceBatchOutcome:
        """The leader's full utility landscape on a uniform price grid.

        Evaluates ``grid_points`` prices spanning ``[C, p_max]`` (or the
        supplied bounds) in one vectorised pass — the scan that used to be
        ``grid_points`` scalar solves.
        """
        config = self._config
        grid = uniform_price_grid(
            config.unit_cost if low is None else float(low),
            config.max_price if high is None else float(high),
            grid_points,
        )
        return self.outcomes_batch(grid)

    def equilibrium(self) -> StackelbergEquilibrium:
        """Compute the unique Stackelberg equilibrium.

        Strategy: evaluate the exact leader utility at every closed-form
        candidate of Theorem 2 (segment boundaries, clamped active-set
        optima, clamped capacity-saturating prices) and take the argmax.
        The candidate set contains the exact maximiser over
        ``[C, p_max]``; ``tests/game_oracle.py`` cross-checks it against a
        grid-then-golden refinement.

        This is the ``M = 1`` case of
        :meth:`repro.core.marketstack.MarketStack.equilibria_stacked`: a
        market of fewer than 8 VMUs takes its row-by-row form, a wider
        one the numpy form, and both give a wide stack's row bits, so the
        two entry points cannot diverge (and repeated solves hit the
        stack's memo).

        Raises:
            InfeasibleMarketError: if no feasible price induces any demand.
        """
        return self.as_stack().equilibria_stacked().equilibrium(0)

    def unconstrained_equilibrium_price(self) -> float:
        """Theorem 2's closed form ``p* = sqrt(C·SE·Σα/ΣD)``, ignoring
        B_max, p_max, and follower drop-out. Matches :meth:`equilibrium`
        whenever none of those constraints bind."""
        return math.sqrt(
            self._config.unit_cost
            * self.spectral_efficiency
            * float(self._alphas.sum())
            / float(self._data_units.sum())
        )

    def with_unit_cost(self, unit_cost: float) -> "StackelbergMarket":
        """A copy of this market with a different transmission cost ``C``
        (the Fig. 3(a-b) sweep)."""
        new_config = MarketConfig(
            unit_cost=unit_cost,
            max_price=self._config.max_price,
            max_bandwidth=self._config.max_bandwidth,
            bandwidth_report_scale=self._config.bandwidth_report_scale,
            enforce_capacity=self._config.enforce_capacity,
        )
        return StackelbergMarket(self._vmus, config=new_config, link=self._link)

    def with_vmus(self, vmus: Sequence[VmuProfile]) -> "StackelbergMarket":
        """A copy of this market with a different population
        (the Fig. 3(c-d) sweep)."""
        return StackelbergMarket(vmus, config=self._config, link=self._link)
