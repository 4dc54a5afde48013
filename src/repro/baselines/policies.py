"""Implementations of the baseline pricing policies.

All classes satisfy :class:`repro.core.mechanism.PricingPolicy`:
``propose_price(history) -> float`` plus ``reset()``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.mechanism import GameHistory
from repro.core.stackelberg import StackelbergMarket
from repro.drl.policy import ActionScaler
from repro.drl.ppo import PPOAgent
from repro.env.vector import history_entries
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_probability

__all__ = [
    "RandomPricing",
    "GreedyPricing",
    "FixedPricing",
    "OraclePricing",
    "LearnedPricing",
]


class RandomPricing:
    """Uniform-random price in ``[C, p_max]`` every round (paper baseline)."""

    def __init__(self, low: float, high: float, *, seed: SeedLike = None) -> None:
        if not low < high:
            raise ConfigurationError(f"need low < high, got [{low}, {high}]")
        self.low, self.high = float(low), float(high)
        self._rng = as_generator(seed)

    def propose_price(self, history: GameHistory) -> float:
        """A fresh uniform draw, independent of history."""
        return float(self._rng.uniform(self.low, self.high))

    def propose_prices(self, history: GameHistory, count: int) -> np.ndarray:
        """The next ``count`` prices as one vectorised draw.

        ``Generator.uniform(size=count)`` consumes the stream exactly like
        ``count`` scalar draws, so the batched evaluation path sees the
        same prices a sequential round loop would have.
        """
        return self._rng.uniform(self.low, self.high, size=count)

    def reset(self) -> None:
        """Stateless (the RNG stream continues)."""


class GreedyPricing:
    """Replay the best past price; explore randomly with probability ε.

    The paper's greedy scheme "determines the best price by selecting from
    past game rounds". With no exploration it could only ever replay its
    first draw, so we keep a small ε-exploration (ε = 0.1 by default) and
    always explore on an empty history.

    Greedy deliberately has no ``propose_prices`` batch hook: each round's
    proposal depends on the outcomes of the rounds before it. The engine's
    sequential path still avoids re-solving the market on the (dominant)
    rounds where the best past price is replayed.
    """

    def __init__(
        self,
        low: float,
        high: float,
        *,
        epsilon: float = 0.1,
        seed: SeedLike = None,
    ) -> None:
        if not low < high:
            raise ConfigurationError(f"need low < high, got [{low}, {high}]")
        self.low, self.high = float(low), float(high)
        self.epsilon = require_probability("epsilon", epsilon)
        self._rng = as_generator(seed)

    def propose_price(self, history: GameHistory) -> float:
        """Best past price, or a uniform draw with probability ε."""
        best = history.best_price
        if best is None or self._rng.uniform() < self.epsilon:
            return float(self._rng.uniform(self.low, self.high))
        return float(best)

    def reset(self) -> None:
        """Stateless across episodes (history is supplied per call)."""


class FixedPricing:
    """Always post the same price."""

    def __init__(self, price: float) -> None:
        if price <= 0.0:
            raise ConfigurationError(f"price must be > 0, got {price}")
        self.price = float(price)

    def propose_price(self, history: GameHistory) -> float:
        """The configured constant."""
        return self.price

    def propose_prices(self, history: GameHistory, count: int) -> np.ndarray:
        """The constant, replicated — evaluation becomes one batched solve."""
        return np.full(count, self.price)

    def reset(self) -> None:
        """Stateless."""


class OraclePricing:
    """The complete-information Stackelberg equilibrium price.

    Computes the equilibrium of the supplied market once and replays it —
    the theoretical optimum the DRL agent should converge to (Fig. 2(b)).
    For a whole market grid, :meth:`from_stack` builds every market's
    oracle from one stacked equilibrium solve instead of per-market loops.
    """

    def __init__(
        self, market: StackelbergMarket, *, price: float | None = None
    ) -> None:
        """Build the oracle for ``market``.

        Args:
            market: the market whose equilibrium price to replay.
            price: the already-solved equilibrium price, if the caller
                solved it elsewhere (e.g. one stacked solve for a whole
                sweep — see :meth:`from_stack`); ``None`` solves here.
        """
        self._price = (
            market.equilibrium().price if price is None else float(price)
        )

    @classmethod
    def from_stack(
        cls, markets: Sequence[StackelbergMarket]
    ) -> list["OraclePricing"]:
        """One oracle per market, all solved in a single stacked pass.

        All ``M`` equilibria come from one
        :meth:`MarketStack.equilibria_stacked` call — bitwise-equal to
        ``[OraclePricing(m) for m in markets]``, which solves per market.
        A lone market solves through its own memoised ``as_stack()``, so
        repeated ``M = 1`` calls (one per seed) solve it once.

        Raises:
            InfeasibleMarketError: if any member market admits no
                profitable trade (same as the per-market path).
        """
        from repro.core.marketstack import MarketStack

        stack = (
            markets[0].as_stack() if len(markets) == 1 else MarketStack(markets)
        )
        solved = stack.equilibria_stacked()
        return [
            cls(market, price=solved.equilibrium(m).price)
            for m, market in enumerate(markets)
        ]

    @property
    def equilibrium_price(self) -> float:
        """The cached equilibrium price."""
        return self._price

    def propose_price(self, history: GameHistory) -> float:
        """The equilibrium price, always."""
        return self._price

    def propose_prices(self, history: GameHistory, count: int) -> np.ndarray:
        """The equilibrium price, replicated for one batched evaluation."""
        return np.full(count, self._price)

    def reset(self) -> None:
        """Stateless."""


class LearnedPricing:
    """Adapts a trained PPO agent to the pricing-policy protocol.

    Reconstructs the agent's normalised observation from the public
    history (the env's :func:`repro.env.history_entries` layout) and
    returns the deterministic (mode) price.
    """

    def __init__(
        self,
        agent: PPOAgent,
        scaler: ActionScaler,
        market: StackelbergMarket,
        *,
        history_length: int = 4,
        seed: SeedLike = None,
    ) -> None:
        if history_length < 1:
            raise ConfigurationError(
                f"history_length must be >= 1, got {history_length}"
            )
        self.agent = agent
        self.scaler = scaler
        self.market = market
        self.history_length = history_length
        self._rng = as_generator(seed)

    def _observation(self, history: GameHistory) -> np.ndarray:
        config = self.market.config
        records = history.last(self.history_length)
        prices: list[float] = []
        allocations: list[np.ndarray] = []
        # Pad missing history with random rounds, like the env's reset.
        for _ in range(self.history_length - len(records)):
            price = float(self._rng.uniform(config.unit_cost, config.max_price))
            prices.append(price)
            allocations.append(self.market.round_outcome(price).allocations)
        for record in records:
            prices.append(record.price)
            allocations.append(np.asarray(record.demands, dtype=float))
        return history_entries(
            np.array(prices),
            np.stack(allocations),
            config.max_price,
            config.capacity_natural,
        ).ravel()

    def propose_price(self, history: GameHistory) -> float:
        """Deterministic price from the trained policy."""
        observation = self._observation(history)
        raw_action, _, _ = self.agent.act(
            observation, seed=self._rng, deterministic=True
        )
        return float(self.scaler.to_price(raw_action[0]))

    def reset(self) -> None:
        """Stateless between episodes (the network holds the knowledge)."""
