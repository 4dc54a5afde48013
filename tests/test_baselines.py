"""Baseline pricing-policy tests."""

import numpy as np
import pytest
from game_oracle import run_rounds

from repro.baselines import (
    FixedPricing,
    GreedyPricing,
    LearnedPricing,
    OraclePricing,
    RandomPricing,
)
from repro.core.mechanism import GameHistory, RoundRecord
from repro.core.stackelberg import StackelbergMarket
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent
from repro.entities.vmu import paper_fig2_population
from repro.errors import ConfigurationError


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


def history_with(prices_utilities) -> GameHistory:
    history = GameHistory()
    for i, (price, utility) in enumerate(prices_utilities):
        history.append(
            RoundRecord(round_index=i, price=price, demands=(0.1,), msp_utility=utility)
        )
    return history


class TestRandomPricing:
    def test_within_bounds(self):
        policy = RandomPricing(5.0, 50.0, seed=0)
        prices = [policy.propose_price(GameHistory()) for _ in range(200)]
        assert all(5.0 <= p <= 50.0 for p in prices)

    def test_deterministic_given_seed(self):
        a = RandomPricing(5.0, 50.0, seed=7).propose_price(GameHistory())
        b = RandomPricing(5.0, 50.0, seed=7).propose_price(GameHistory())
        assert a == b

    def test_spreads_over_range(self):
        policy = RandomPricing(5.0, 50.0, seed=0)
        prices = np.array([policy.propose_price(GameHistory()) for _ in range(500)])
        assert prices.std() > 5.0

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            RandomPricing(50.0, 5.0)


class TestGreedyPricing:
    def test_replays_best_price(self):
        policy = GreedyPricing(5.0, 50.0, epsilon=0.0, seed=0)
        history = history_with([(10.0, 2.0), (25.0, 6.4), (40.0, 4.0)])
        assert policy.propose_price(history) == 25.0

    def test_explores_on_empty_history(self):
        policy = GreedyPricing(5.0, 50.0, epsilon=0.0, seed=0)
        price = policy.propose_price(GameHistory())
        assert 5.0 <= price <= 50.0

    def test_epsilon_exploration_rate(self):
        policy = GreedyPricing(5.0, 50.0, epsilon=0.3, seed=0)
        history = history_with([(25.0, 6.4)])
        prices = [policy.propose_price(history) for _ in range(2000)]
        explore_fraction = np.mean([p != 25.0 for p in prices])
        assert explore_fraction == pytest.approx(0.3, abs=0.05)

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            GreedyPricing(5.0, 50.0, epsilon=1.5)

    def test_improves_with_rounds(self, market):
        """Greedy's running best utility is monotone across rounds."""
        policy = GreedyPricing(5.0, 50.0, epsilon=0.2, seed=0)
        history, outcomes = run_rounds(market, policy, 100)
        bests = np.maximum.accumulate([o.msp_utility for o in outcomes])
        assert bests[-1] >= bests[0]
        assert bests[-1] >= 0.95 * market.equilibrium().msp_utility


class TestFixedAndOracle:
    def test_fixed_constant(self):
        policy = FixedPricing(30.0)
        assert policy.propose_price(GameHistory()) == 30.0

    def test_fixed_invalid(self):
        with pytest.raises(ConfigurationError):
            FixedPricing(0.0)

    def test_oracle_is_equilibrium(self, market):
        policy = OraclePricing(market)
        assert policy.propose_price(GameHistory()) == pytest.approx(
            market.equilibrium().price
        )

    def test_oracle_utility_dominates_fixed(self, market):
        _, oracle_outcomes = run_rounds(market, OraclePricing(market), 1)
        for fixed_price in (10.0, 20.0, 40.0):
            _, fixed_outcomes = run_rounds(market, FixedPricing(fixed_price), 1)
            assert (
                oracle_outcomes[0].msp_utility
                >= fixed_outcomes[0].msp_utility - 1e-9
            )


class TestLearnedPricing:
    def _policy(self, market, history_length=4):
        network = ActorCritic(
            obs_dim=history_length * (1 + market.num_vmus), seed=0
        )
        agent = PPOAgent(network)
        scaler = ActionScaler(
            market.config.unit_cost, market.config.max_price
        )
        return LearnedPricing(
            agent, scaler, market, history_length=history_length, seed=0
        )

    def test_feasible_price_from_empty_history(self, market):
        policy = self._policy(market)
        price = policy.propose_price(GameHistory())
        assert 5.0 <= price <= 50.0

    def test_feasible_price_from_partial_history(self, market):
        policy = self._policy(market)
        history = history_with([(20.0, 3.0)])
        # pads missing rounds, consumes real ones
        history.records[0] = RoundRecord(
            round_index=0, price=20.0, demands=(0.1, 0.2), msp_utility=3.0
        )
        price = policy.propose_price(history)
        assert 5.0 <= price <= 50.0

    def test_untrained_policy_near_mid_price(self, market):
        # Actor head init gain 0.01 -> raw ~ 0 -> mid price.
        policy = self._policy(market)
        price = policy.propose_price(GameHistory())
        assert price == pytest.approx(27.5, abs=2.0)

    def test_runs_in_market_loop(self, market):
        policy = self._policy(market)
        history, outcomes = run_rounds(market, policy, 5)
        assert len(outcomes) == 5

    def test_invalid_history_length(self, market):
        network = ActorCritic(obs_dim=3, seed=0)
        agent = PPOAgent(network)
        scaler = ActionScaler(5.0, 50.0)
        with pytest.raises(ConfigurationError):
            LearnedPricing(agent, scaler, market, history_length=0)
