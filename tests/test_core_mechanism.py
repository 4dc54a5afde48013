"""Mechanism-interface tests: history bookkeeping and round loops."""

import pytest
from game_oracle import run_rounds

from repro.baselines import FixedPricing, OraclePricing, RandomPricing
from repro.core.mechanism import GameHistory, PricingPolicy, RoundRecord
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


class TestGameHistory:
    def _record(self, i, price, utility):
        return RoundRecord(
            round_index=i, price=price, demands=(0.1, 0.2), msp_utility=utility
        )

    def test_empty_history(self):
        history = GameHistory()
        assert len(history) == 0
        assert history.best_price is None
        assert history.best_utility == float("-inf")

    def test_best_tracking(self):
        history = GameHistory()
        history.append(self._record(0, 10.0, 3.0))
        history.append(self._record(1, 25.0, 6.4))
        history.append(self._record(2, 40.0, 5.0))
        assert history.best_utility == 6.4
        assert history.best_price == 25.0

    def test_last_returns_tail(self):
        history = GameHistory()
        for i in range(5):
            history.append(self._record(i, 10.0 + i, 1.0))
        tail = history.last(2)
        assert [r.round_index for r in tail] == [3, 4]

    def test_last_zero(self):
        history = GameHistory()
        history.append(self._record(0, 10.0, 1.0))
        assert history.last(0) == []

    def test_last_negative_rejected(self):
        with pytest.raises(ValueError):
            GameHistory().last(-1)

    def test_empty_history_last_is_empty_list(self):
        """Regression: last() on an empty history must be [] for any count,
        never an error or a non-list, so callers need no guard."""
        history = GameHistory()
        assert history.last(0) == []
        assert history.last(1) == []
        assert history.last(10) == []

    def test_last_larger_than_history_returns_all(self):
        history = GameHistory()
        history.append(self._record(0, 10.0, 1.0))
        assert [r.round_index for r in history.last(10)] == [0]

    def test_empty_history_best_record(self):
        assert GameHistory().best_record is None

    def test_best_record_consistent_with_best_price_and_utility(self):
        history = GameHistory()
        history.append(self._record(0, 10.0, 3.0))
        history.append(self._record(1, 25.0, 6.4))
        best = history.best_record
        assert best is not None
        assert best.price == history.best_price
        assert best.msp_utility == history.best_utility

    def test_best_tie_breaks_to_first(self):
        history = GameHistory()
        history.append(self._record(0, 10.0, 6.4))
        history.append(self._record(1, 25.0, 6.4))
        assert history.best_price == 10.0

    def test_greedy_explores_on_empty_history(self):
        """Regression for the empty-history contract at its main call site:
        GreedyPricing must fall back to exploration (not crash) when
        best_price is None."""
        from repro.baselines import GreedyPricing

        policy = GreedyPricing(5.0, 50.0, epsilon=0.0, seed=0)
        price = policy.propose_price(GameHistory())
        assert 5.0 <= price <= 50.0


class TestRunRounds:
    def test_fixed_policy_constant_outcomes(self, market):
        history, outcomes = run_rounds(market, FixedPricing(20.0), 5)
        assert len(history) == 5
        assert all(o.price == 20.0 for o in outcomes)
        assert len({o.msp_utility for o in outcomes}) == 1

    def test_price_clamped_to_feasible(self, market):
        history, outcomes = run_rounds(market, FixedPricing(1.0), 1)
        assert outcomes[0].price == market.config.unit_cost  # clamped up to C

    def test_history_accumulates_across_calls(self, market):
        history, _ = run_rounds(market, FixedPricing(20.0), 3)
        history, _ = run_rounds(market, FixedPricing(25.0), 2, history=history)
        assert len(history) == 5
        # Indices continue across segments.
        assert [r.round_index for r in history.records] == [0, 1, 2, 3, 4]

    def test_oracle_achieves_equilibrium_utility(self, market):
        eq = market.equilibrium()
        _, outcomes = run_rounds(market, OraclePricing(market), 3)
        assert outcomes[0].msp_utility == pytest.approx(eq.msp_utility, rel=1e-9)

    def test_random_policy_within_bounds(self, market):
        policy = RandomPricing(5.0, 50.0, seed=0)
        _, outcomes = run_rounds(market, policy, 50)
        assert all(5.0 <= o.price <= 50.0 for o in outcomes)

    def test_zero_rounds_rejected(self, market):
        with pytest.raises(ValueError):
            run_rounds(market, FixedPricing(20.0), 0)

    def test_policies_satisfy_protocol(self, market):
        for policy in (
            FixedPricing(10.0),
            RandomPricing(5.0, 50.0),
            OraclePricing(market),
        ):
            assert isinstance(policy, PricingPolicy)
