"""Multi-MSP price competition (the paper's second stated future work).

The paper's market is a monopoly. Its conclusion proposes extending to
"scenarios with multiple MSPs". This module implements the natural
oligopoly extension:

- Each MSP ``m`` posts a unit price ``p_m`` over its own capacity.
- Each VMU buys from the *cheapest* MSP (ties split evenly) and
  best-responds with Eq. (8) at that price; capacity is rationed per MSP.
- MSPs compete à la Bertrand with capacity limits: given rivals' prices,
  each MSP best-responds over ``[C_m, p_max]``; we iterate Gauss-Seidel
  best responses to a (pure-strategy) equilibrium when one exists.

Classic results to expect (and which the tests assert): with two identical
unconstrained MSPs, undercutting drives prices down to cost (Bertrand);
with tight capacities, prices stay above cost and the dynamics can enter
an Edgeworth cycle — detected exactly (profiles on the tick lattice
repeat bitwise) and reported as a diagnosis (cycle length and price
interval) rather than a bare ``converged=False``.

The market runs the library's one Eq. 2/4/8 and rationing chain, the
``_*_rows`` kernels of :mod:`repro.core.utilities` and
:mod:`repro.channel.ofdma`, with ``M = 1``: :meth:`MultiMspMarket.outcome`
passes the cheapest price as ``(1,)``, and each MSP's lattice best
response passes the whole candidate lattice as one ``(1, P)`` grid
against fixed rivals. The batched lattice is bitwise-equal to the
scalar one-``outcome()``-call-per-lattice-point reference in
``tests/game_oracle.py``, which the property tests and the speedup bench
pin it against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.channel.link import RsuLink, paper_link
from repro.channel.ofdma import _rationing_rows
from repro.core.utilities import (
    _follower_best_response_rows,
    _msp_utilities_rows,
    _vmu_utilities_rows,
)
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError, GameError
from repro.utils.validation import require_in_range, require_positive

if TYPE_CHECKING:
    from repro.core.stackelberg import StackelbergMarket

__all__ = [
    "MspSpec",
    "OligopolyOutcome",
    "OligopolyEquilibrium",
    "BestResponseTrace",
    "MultiMspMarket",
    "oligopoly_from_market",
]

# Strict-improvement margin for the lattice sweep: the current price is
# kept unless a candidate beats it by more than this, which is what gives
# the dynamics inertia on zero-utility plateaus.
_IMPROVEMENT_MARGIN = 1e-12


@dataclass(frozen=True)
class MspSpec:
    """One competing provider.

    Attributes:
        msp_id: identifier.
        unit_cost: its transmission cost ``C_m`` (price floor).
        capacity: sellable bandwidth in natural units.
    """

    msp_id: str
    unit_cost: float
    capacity: float

    def __post_init__(self) -> None:
        require_positive("unit_cost", self.unit_cost)
        require_positive("capacity", self.capacity)


@dataclass(frozen=True)
class OligopolyOutcome:
    """Market outcome at a posted price vector."""

    prices: np.ndarray
    msp_utilities: np.ndarray
    msp_sales: np.ndarray
    """Bandwidth sold per MSP (natural units)."""
    vmu_allocations: np.ndarray
    """Bandwidth received per VMU (natural units)."""
    vmu_utilities: np.ndarray
    """Eq. (7) utility per VMU at the cheapest posted price — the
    consumer-surplus side of the oligopoly welfare comparison."""

    @property
    def social_welfare(self) -> float:
        """Total MSP profit plus total VMU surplus."""
        return float(self.msp_utilities.sum() + self.vmu_utilities.sum())


@dataclass(frozen=True)
class BestResponseTrace:
    """Full Gauss-Seidel trajectory of an oligopoly solve.

    Attributes:
        profiles: ``(T + 1, N)`` price profiles — the initial profile
            followed by the profile after each sweep.
        residuals: ``(T,)`` sup-norm change of each sweep.
    """

    profiles: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class OligopolyEquilibrium:
    """Fixed point (or cycle diagnosis) of Gauss-Seidel price dynamics.

    ``cycle_length > 0`` means the dynamics revisited an earlier price
    profile exactly (profiles live on the tick lattice, so recurrence is
    bitwise) — the Edgeworth-cycle regime of capacity-constrained
    Bertrand competition. ``cycle_low``/``cycle_high`` bound the prices
    visited along the cycle (the Edgeworth price interval); both are 0.0
    when no cycle was detected.
    """

    prices: np.ndarray
    msp_utilities: np.ndarray
    converged: bool
    iterations: int
    residual: float = 0.0
    cycle_length: int = 0
    cycle_low: float = 0.0
    cycle_high: float = 0.0
    trace: BestResponseTrace | None = field(default=None, compare=False)


class MultiMspMarket:
    """Price competition between several MSPs over one VMU population."""

    def __init__(
        self,
        vmus: Sequence[VmuProfile],
        msps: Sequence[MspSpec],
        *,
        max_price: float = 50.0,
        price_tick: float = 0.05,
        link: RsuLink | None = None,
    ) -> None:
        if len(vmus) == 0:
            raise ConfigurationError("market needs at least one VMU")
        if len(msps) < 1:
            raise ConfigurationError("market needs at least one MSP")
        ids = [m.msp_id for m in msps]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate MSP ids")
        require_positive("max_price", max_price)
        require_positive("price_tick", price_tick)
        self._vmus = tuple(vmus)
        self._msps = tuple(msps)
        self._max_price = float(max_price)
        self._price_tick = float(price_tick)
        self._link = link if link is not None else paper_link()
        # One-market rows (M = 1) of the kernels' (M, N) / (M,) inputs.
        self._alphas = np.array([[v.immersion_coef for v in vmus]])
        self._data = np.array([[v.data_units for v in vmus]])
        self._se = np.array([self._link.spectral_efficiency])
        self._unit_costs = np.array([m.unit_cost for m in msps])

    @property
    def msps(self) -> tuple[MspSpec, ...]:
        """The competing providers."""
        return self._msps

    @property
    def num_msps(self) -> int:
        """Number of providers."""
        return len(self._msps)

    @property
    def vmus(self) -> tuple[VmuProfile, ...]:
        """The buyer population."""
        return self._vmus

    @property
    def max_price(self) -> float:
        """Price cap shared by all providers."""
        return self._max_price

    @property
    def price_tick(self) -> float:
        """Lattice tick prices are quoted on."""
        return self._price_tick

    @property
    def spectral_efficiency(self) -> float:
        """Link spectral efficiency (shared by all providers)."""
        return self._link.spectral_efficiency

    def outcome(self, prices: Sequence[float]) -> OligopolyOutcome:
        """Clear the market at a posted price vector.

        VMUs buy from the cheapest provider (ties split demand evenly);
        each provider rations its own capacity proportionally.
        """
        prices = self._checked_prices(prices, "prices")
        best_price = prices.min(keepdims=True)
        winners = np.flatnonzero(np.isclose(prices, best_price, rtol=1e-12))
        demands = _follower_best_response_rows(
            self._alphas, self._data, best_price, self._se
        )
        sales = np.zeros(self.num_msps)
        allocations = np.zeros(len(self._vmus))
        share = demands / len(winners)
        totals = share.sum(axis=-1)
        for msp_index in winners:
            capacity = np.array([self._msps[msp_index].capacity])
            granted = _rationing_rows(share, capacity, totals)[0]
            sales[msp_index] = granted.sum()
            allocations += granted
        # Eq. (4) per provider: each MSP is one row, its sales the total.
        utilities = _msp_utilities_rows(prices, self._unit_costs, sales)
        return OligopolyOutcome(
            prices=prices,
            msp_utilities=utilities,
            msp_sales=sales,
            vmu_allocations=allocations,
            vmu_utilities=_vmu_utilities_rows(
                self._alphas,
                self._data,
                allocations[np.newaxis],
                best_price,
                self._se,
            )[0],
        )

    def _checked_prices(self, prices: Sequence[float], what: str) -> np.ndarray:
        """``prices`` as a float vector with one finite, positive price per MSP."""
        prices = np.asarray(prices, dtype=float)
        if prices.shape != (self.num_msps,):
            raise ConfigurationError(
                f"expected {self.num_msps} {what}, got shape {prices.shape}"
            )
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            raise ConfigurationError(f"{what} must be finite and > 0, got {prices!r}")
        return prices

    def msp_utility(self, msp_index: int, price: float, rival_prices: Sequence[float]) -> float:
        """Utility of one MSP at ``price`` given the rivals' prices."""
        rivals = list(rival_prices)
        if len(rivals) != self.num_msps - 1:
            raise ConfigurationError(
                f"expected {self.num_msps - 1} rival prices, got {len(rivals)}"
            )
        full = rivals[:msp_index] + [price] + rivals[msp_index:]
        return float(self.outcome(full).msp_utilities[msp_index])

    def _price_lattice(self, unit_cost: float) -> np.ndarray:
        """The candidate lattice ``{C + k·tick : k ≥ 0} ∩ [C, p_max]``.

        Built exactly: a point belongs to the lattice iff
        ``unit_cost + k * price_tick <= max_price`` holds in float
        arithmetic — inclusive endpoint, no slop. (The previous
        construction over-generated with ``arange(count + 1)`` and
        filtered with a ``1e-12`` tolerance, which could admit a point
        strictly above ``max_price``.)
        """
        if unit_cost > self._max_price:
            return np.empty(0)
        count = int((self._max_price - unit_cost) / self._price_tick)
        # Float division can land one step off either way; correct with
        # the exact membership predicate.
        while unit_cost + (count + 1) * self._price_tick <= self._max_price:
            count += 1
        while count > 0 and unit_cost + count * self._price_tick > self._max_price:
            count -= 1
        return unit_cost + self._price_tick * np.arange(count + 1)

    def _lattice_utilities(
        self, msp_index: int, prices: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Utility of ``msp_index`` at each candidate own-price, batched.

        One pass of the kernels over the whole candidate vector, as a
        ``(1, P)`` price grid with rivals fixed at ``prices`` —
        bitwise-equal to calling :meth:`msp_utility` once per candidate
        (every array op below is the elementwise replica of the scalar
        ``outcome()`` chain, including the ``np.isclose`` winner test and
        the per-row contiguous-sum rationing).
        """
        spec = self._msps[msp_index]
        candidates = np.asarray(candidates, dtype=float)
        rivals = np.delete(np.asarray(prices, dtype=float), msp_index)
        if rivals.size:
            best = np.minimum(candidates, rivals.min())
        else:
            best = candidates
        self_wins = np.isclose(candidates, best, rtol=1e-12)
        if rivals.size:
            rival_wins = np.isclose(
                rivals[np.newaxis, :], best[:, np.newaxis], rtol=1e-12
            ).sum(axis=1)
        else:
            rival_wins = np.zeros(candidates.shape, dtype=int)
        num_winners = self_wins.astype(int) + rival_wins
        demands = _follower_best_response_rows(
            self._alphas, self._data, best[np.newaxis], self._se
        )
        share = demands / num_winners[:, np.newaxis]
        capacity = np.array([spec.capacity])
        granted = _rationing_rows(share, capacity, share.sum(axis=-1))
        sales = np.where(self_wins, granted[0].sum(axis=-1), 0.0)
        return _msp_utilities_rows(
            candidates[np.newaxis],
            np.array([spec.unit_cost]),
            sales[np.newaxis],
        )[0]

    def _best_response_price(self, msp_index: int, prices: np.ndarray) -> float:
        """Best response over the discrete price lattice (batched).

        Prices live on a tick lattice (``price_tick``), which is the
        standard discretisation that gives capacity-less Bertrand a pure
        equilibrium at cost + one tick: continuous undercutting has no
        smallest profitable deviation, so a continuous argmax would sit
        "just below" the rival forever. The current price is kept unless
        a lattice point is *strictly* better — inertia on ties is what
        makes the dynamics terminate instead of drifting around
        zero-utility plateaus.

        The whole lattice is evaluated in one batched call; the
        first-strict-improvement sweep over the resulting values is
        bitwise-identical to the scalar one-``msp_utility()``-per-point
        reference in ``tests/game_oracle.py``.
        """
        spec = self._msps[msp_index]
        lattice = self._price_lattice(spec.unit_cost)
        candidates = np.concatenate(([float(prices[msp_index])], lattice))
        values = self._lattice_utilities(msp_index, prices, candidates)
        best_price = float(candidates[0])
        best_value = float(values[0])
        for price, value in zip(lattice.tolist(), values[1:].tolist()):
            if value > best_value + _IMPROVEMENT_MARGIN:
                best_price, best_value = price, value
        return best_price

    def _sweep(self, prices: np.ndarray, *, damping: float = 1.0) -> np.ndarray:
        """One in-place Gauss-Seidel sweep: each MSP responds to the
        *freshest* prices (simultaneous updates make undercutting
        duopolies oscillate — both jump below each other's stale price).
        ``damping < 1`` relaxes each update toward the best response,
        which moves prices off the lattice but can stabilise cycling
        instances."""
        for index in range(self.num_msps):
            response = self._best_response_price(index, prices)
            if damping == 1.0:
                prices[index] = response
            else:
                prices[index] = (1.0 - damping) * prices[index] + damping * response
        return prices

    def _initial_prices(
        self, initial_prices: Sequence[float] | None
    ) -> np.ndarray:
        if initial_prices is None:
            return np.array(
                [min(self._max_price, 2.0 * m.unit_cost) for m in self._msps]
            )
        return self._checked_prices(initial_prices, "initial prices").copy()

    def equilibrium(
        self,
        *,
        initial_prices: Sequence[float] | None = None,
        max_iterations: int = 1000,
        tolerance: float = 1e-3,
        damping: float = 1.0,
        record_trace: bool = True,
    ) -> OligopolyEquilibrium:
        """Iterate Gauss-Seidel price best responses to a fixed point.

        Undercutting descends one grid/tick step per iteration (Bertrand
        dynamics are genuinely gradual), hence the generous default
        iteration budget. When the dynamics revisit an earlier profile
        exactly — the Edgeworth-cycle regime of capacity-constrained
        Bertrand competition, a real feature of the game rather than a
        numerical failure — the solve stops immediately and reports the
        cycle's length and price interval (``cycle_length``,
        ``cycle_low``/``cycle_high``) alongside ``converged=False``.
        """
        if max_iterations < 1:
            raise GameError("max_iterations must be >= 1")
        require_in_range("damping", damping, 0.0, 1.0, inclusive=True)
        if damping == 0.0:
            raise GameError("damping must be > 0 (0 never moves)")
        prices = self._initial_prices(initial_prices)
        profiles = [prices.copy()]
        residuals: list[float] = []
        seen = {tuple(prices.tolist()): 0}
        converged = False
        residual = float("inf")
        cycle_length = 0
        cycle_low = cycle_high = 0.0
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            previous = prices.copy()
            self._sweep(prices, damping=damping)
            residual = float(np.max(np.abs(prices - previous)))
            profiles.append(prices.copy())
            residuals.append(residual)
            if residual <= tolerance:
                converged = True
                break
            key = tuple(prices.tolist())
            if key in seen:
                start = seen[key]
                cycle_length = iterations - start
                cycle_states = np.asarray(profiles[start:iterations])
                cycle_low = float(cycle_states.min())
                cycle_high = float(cycle_states.max())
                break
            seen[key] = iterations
        outcome = self.outcome(prices)
        trace = (
            BestResponseTrace(
                profiles=np.asarray(profiles), residuals=np.asarray(residuals)
            )
            if record_trace
            else None
        )
        return OligopolyEquilibrium(
            prices=prices,
            msp_utilities=outcome.msp_utilities,
            converged=converged,
            iterations=iterations,
            residual=residual,
            cycle_length=cycle_length,
            cycle_low=cycle_low,
            cycle_high=cycle_high,
            trace=trace,
        )


def oligopoly_from_market(
    market: "StackelbergMarket",
    num_msps: int,
    *,
    split_capacity: bool = True,
    price_tick: float = 0.05,
) -> MultiMspMarket:
    """Build an ``N``-MSP oligopoly from a monopoly Stackelberg market.

    Every provider inherits the monopolist's unit cost and price cap;
    ``split_capacity=True`` divides the monopolist's capacity evenly
    (fixed industry capacity, the standard comparison for
    price-of-anarchy sweeps), ``False`` replicates it per provider
    (entry adds capacity).
    """
    if num_msps < 1:
        raise ConfigurationError("num_msps must be >= 1")
    config = market.config
    capacity = config.capacity_natural
    if split_capacity:
        capacity = capacity / num_msps
    msps = [
        MspSpec(f"msp-{index}", unit_cost=config.unit_cost, capacity=capacity)
        for index in range(num_msps)
    ]
    return MultiMspMarket(
        market.vmus,
        msps,
        max_price=config.max_price,
        price_tick=price_tick,
        link=market.link,
    )
