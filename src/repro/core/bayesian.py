"""Bayesian Stackelberg pricing over a distribution of markets.

PyNFG's Stackelberg example frames the game as chance node → leader →
follower: nature draws market conditions, the leader prices *before*
seeing the draw, the followers best-respond inside the realised market.
This module adopts that shape on top of the stacked solver: a
:class:`BayesianStackelbergMarket` is a weighted :class:`MarketStack`
sample of scenarios, and the leader's expected-utility objective is a
weights-dot-rows reduction over **one** stacked evaluation — so the
robust solve reuses the exact machinery (candidate matrix, stacked
outcome evaluation, ``grid_then_golden`` with a vector objective) that
already solves the deterministic game. The deterministic
:meth:`StackelbergMarket.equilibrium` is literally the one-atom case:
with a single scenario of weight 1.0 every evaluation in
:meth:`BayesianStackelbergMarket.equilibrium` is the same call the
stacked scalar solve makes, so the two agree bitwise (pinned in tests).

Scenario sampling determinism: ``scenario_market(base, spec, i)`` is a
pure function of ``(base, spec.seed, i)`` — the draw stream is
``np.random.default_rng([spec.seed, index])`` (the same per-index
seeding the city grid uses), so scenario ``i`` is identical no matter
how many scenarios are sampled around it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.marketstack import MarketStack, StackedEquilibria
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError, InfeasibleMarketError
from repro.game.solvers import grid_then_golden
from repro.utils.validation import require_in_range, require_positive_int

__all__ = [
    "ScenarioSpec",
    "BayesianStackelbergEquilibrium",
    "BayesianStackelbergMarket",
    "scenario_market",
    "sample_scenarios",
    "sample_market_distribution",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """How to sample market scenarios around a base market.

    Each jitter is the half-width of a multiplicative uniform factor
    (``0.25`` → factors in ``[0.75, 1.25]``): ``alpha_jitter`` scales
    every VMU's immersion coefficient, ``data_jitter`` its VT size, and
    ``capacity_jitter`` the market's sellable bandwidth ``B_max``.
    """

    num_scenarios: int = 16
    seed: int = 0
    alpha_jitter: float = 0.25
    data_jitter: float = 0.25
    capacity_jitter: float = 0.0

    def __post_init__(self) -> None:
        require_positive_int("num_scenarios", self.num_scenarios)
        for name in ("alpha_jitter", "data_jitter", "capacity_jitter"):
            value = require_in_range(name, getattr(self, name), 0.0, 1.0)
            if value == 1.0:
                # A unit jitter admits factor 0, which would zero out a
                # VMU parameter that must stay positive.
                raise ConfigurationError(f"{name} must be < 1, got {value!r}")


def scenario_market(
    base: StackelbergMarket, spec: ScenarioSpec, index: int
) -> StackelbergMarket:
    """Scenario ``index`` of the distribution — a pure function of
    ``(base, spec, index)``.

    The draw stream is ``np.random.default_rng([spec.seed, index])``, so
    the scenario does not depend on which other indices are sampled
    (the determinism contract documented in ``sim/README.md``). The
    stream layout is fixed — per-VMU α factors, per-VMU data factors,
    one capacity factor — and every factor is drawn even at zero jitter
    (``uniform(1, 1)`` is exactly ``1.0``), so turning a jitter knob
    never shifts the other draws.
    """
    if index < 0:
        raise ConfigurationError(f"scenario index must be >= 0, got {index}")
    rng = np.random.default_rng([spec.seed, index])
    count = base.num_vmus
    alpha_factors = rng.uniform(
        1.0 - spec.alpha_jitter, 1.0 + spec.alpha_jitter, size=count
    )
    data_factors = rng.uniform(
        1.0 - spec.data_jitter, 1.0 + spec.data_jitter, size=count
    )
    capacity_factor = float(
        rng.uniform(1.0 - spec.capacity_jitter, 1.0 + spec.capacity_jitter)
    )
    vmus = [
        VmuProfile(
            vmu_id=vmu.vmu_id,
            data_size_mb=vmu.data_size_mb * float(data_factors[i]),
            immersion_coef=vmu.immersion_coef * float(alpha_factors[i]),
        )
        for i, vmu in enumerate(base.vmus)
    ]
    config = replace(
        base.config, max_bandwidth=base.config.max_bandwidth * capacity_factor
    )
    return StackelbergMarket(vmus, config=config, link=base.link)


def sample_scenarios(
    base: StackelbergMarket, spec: ScenarioSpec
) -> list[StackelbergMarket]:
    """Sample ``spec.num_scenarios`` scenarios around ``base``."""
    return [scenario_market(base, spec, i) for i in range(spec.num_scenarios)]


def sample_market_distribution(
    base: StackelbergMarket,
    spec: ScenarioSpec,
    *,
    weights: Sequence[float] | None = None,
) -> "BayesianStackelbergMarket":
    """Sample a scenario distribution around ``base`` (uniform weights
    unless given)."""
    return BayesianStackelbergMarket(sample_scenarios(base, spec), weights=weights)


@dataclass(frozen=True)
class BayesianStackelbergEquilibrium:
    """The leader's robust price against the scenario distribution.

    Attributes:
        price: the expected-utility-maximising posted price.
        expected_utility: Σ_m w_m · U_MSP(price; scenario m).
        scenario_utilities: ``(M,)`` realised leader utility per scenario
            at the robust price.
        weights: ``(M,)`` scenario weights (normalised).
        feasible: ``(M,)`` per-scenario feasibility of the underlying
            deterministic game.
    """

    price: float
    expected_utility: float
    scenario_utilities: np.ndarray
    weights: np.ndarray
    feasible: np.ndarray


class BayesianStackelbergMarket:
    """A weighted distribution over Stackelberg market scenarios.

    The leader commits to **one** price before nature's draw; followers
    best-respond inside the realised scenario. All scenarios must share
    the leader's decision space — unit cost and price cap are required
    to match exactly across scenarios.
    """

    def __init__(
        self,
        scenarios: Sequence[StackelbergMarket],
        *,
        weights: Sequence[float] | None = None,
    ) -> None:
        markets = tuple(scenarios)
        if not markets:
            raise ConfigurationError("distribution needs at least one scenario")
        unit_cost = markets[0].config.unit_cost
        max_price = markets[0].config.max_price
        for index, market in enumerate(markets):
            if (
                market.config.unit_cost != unit_cost
                or market.config.max_price != max_price
            ):
                raise ConfigurationError(
                    "scenarios must share the leader's decision space: "
                    f"scenario {index} has (C, p_max) = "
                    f"({market.config.unit_cost}, {market.config.max_price}), "
                    f"expected ({unit_cost}, {max_price})"
                )
        if weights is None:
            weight_vec = np.full(len(markets), 1.0 / len(markets))
        else:
            weight_vec = np.asarray(weights, dtype=float)
            if weight_vec.shape != (len(markets),):
                raise ConfigurationError(
                    f"expected {len(markets)} weights, got shape {weight_vec.shape}"
                )
            if not np.all(np.isfinite(weight_vec)) or np.any(weight_vec <= 0.0):
                raise ConfigurationError("weights must be finite and > 0")
            weight_vec = weight_vec / weight_vec.sum()
        self._markets = markets
        self._weights = weight_vec
        self._stack = MarketStack(markets)
        self._unit_cost = float(unit_cost)
        self._max_price = float(max_price)

    @property
    def scenarios(self) -> tuple[StackelbergMarket, ...]:
        """The scenario markets."""
        return self._markets

    @property
    def num_scenarios(self) -> int:
        """Number of scenarios M."""
        return len(self._markets)

    @property
    def weights(self) -> np.ndarray:
        """Normalised scenario weights (copy)."""
        return self._weights.copy()

    @property
    def unit_cost(self) -> float:
        """The shared unit cost ``C`` (price floor)."""
        return self._unit_cost

    @property
    def max_price(self) -> float:
        """The shared price cap ``p_max``."""
        return self._max_price

    @property
    def stack(self) -> MarketStack:
        """The scenario stack (shared with the oracle solve)."""
        return self._stack

    def _expected(self, utilities: np.ndarray) -> np.ndarray:
        """Weights-dot-rows reduction ``Σ_m w_m · utilities[m]``.

        Written as an explicit left-to-right accumulation (not a BLAS
        ``w @ U``) so the reduction order — and therefore the bits — is
        fixed for any M, and the one-atom case is literally
        ``1.0 * utilities[0]``. Tests pin the weighted scalar reference
        against this exact order.
        """
        expected = self._weights[0] * utilities[0]
        for m in range(1, len(self._markets)):
            expected = expected + self._weights[m] * utilities[m]
        return expected

    def expected_utilities(self, prices: Sequence[float] | np.ndarray) -> np.ndarray:
        """Expected leader utility at each price of a ``(P,)`` vector.

        One stacked evaluation: the price vector broadcasts to an
        ``(M, P)`` grid (every scenario sees every price), then the
        weighted reduction collapses the scenario axis.
        """
        price_vec = np.asarray(prices, dtype=float)
        if price_vec.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-D price vector, got shape {price_vec.shape}"
            )
        grid = np.broadcast_to(
            price_vec, (len(self._markets), price_vec.shape[0])
        )
        utilities = self._stack.outcomes_stacked(grid).msp_utilities
        return self._expected(utilities)

    def expected_utility(self, price: float) -> float:
        """Expected leader utility at one price."""
        return float(self.expected_utilities(np.array([float(price)]))[0])

    def scenario_utilities(self, price: float) -> np.ndarray:
        """Per-scenario leader utility at one price, shape ``(M,)``."""
        prices = np.full(len(self._markets), float(price))
        return self._stack.outcomes_stacked(prices).msp_utilities

    def oracle_equilibria(self) -> StackedEquilibria:
        """Per-scenario full-information equilibria (the oracle that
        knows nature's draw), solved in one stacked pass."""
        return self._stack.equilibria_stacked()

    def equilibrium(self, *, refine: bool = True) -> BayesianStackelbergEquilibrium:
        """Maximise the leader's expected utility over ``[C, p_max]``.

        Mirrors :meth:`MarketStack.equilibria_stacked` step for step —
        pooled closed-form candidates from every scenario evaluated in
        one stacked pass, argmax, then (with ``refine``) a
        ``grid_then_golden`` cross-check through the vector objective,
        better value wins — so the one-atom case reproduces
        :meth:`StackelbergMarket.equilibrium` bitwise.

        Raises:
            InfeasibleMarketError: if no scenario admits a profitable
                price (scenarios that are individually infeasible merely
                contribute their realised utility to the expectation).
        """
        candidates, feasible = self._stack._candidate_rows(slice(None))
        if not bool(np.any(feasible)):
            raise InfeasibleMarketError(
                "no scenario in the distribution admits a profitable price"
            )
        pooled = np.asarray(candidates, dtype=float).reshape(-1)
        values = self.expected_utilities(pooled)
        best_index = int(np.argmax(values))
        best_price = float(pooled[best_index])
        best_value = float(values[best_index])
        if refine:
            refined_price, refined_value = grid_then_golden(
                self.expected_utility,
                self._unit_cost,
                self._max_price,
                vector_objective=self.expected_utilities,
            )
            if refined_value > best_value:
                best_price, best_value = float(refined_price), float(refined_value)
        realised = self.scenario_utilities(best_price)
        return BayesianStackelbergEquilibrium(
            price=best_price,
            expected_utility=float(self._expected(realised)),
            scenario_utilities=realised,
            weights=self._weights.copy(),
            feasible=np.asarray(feasible, dtype=bool).copy(),
        )
