"""Equilibria in the follower-dropout regime.

The generic property tests draw (α, D) from the paper's ranges, where
every drop-out threshold ``α·SE/D`` sits far above ``p_max`` — so the
active-set machinery of the candidate enumeration never gets exercised
there. These tests construct markets whose thresholds fall *inside*
``[C, p_max]`` and verify the solver handles the kinked leader utility:
pricing some VMUs out can be optimal, and the closed-form-per-segment
candidates must still match a brute-force search.
"""

import numpy as np
import pytest

from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile
from repro.game.solvers import grid_then_golden

NO_CAP = MarketConfig(enforce_capacity=False)


def market_with(profiles, config=NO_CAP) -> StackelbergMarket:
    vmus = [
        VmuProfile(f"v{i}", data_size_mb=d, immersion_coef=a)
        for i, (a, d) in enumerate(profiles)
    ]
    return StackelbergMarket(vmus, config=config)


class TestDropoutRegime:
    def test_threshold_inside_price_range(self):
        # α=5, D=1000 MB -> threshold 5·38.54/10 ≈ 19.3, inside [5, 50].
        market = market_with([(5.0, 1000.0)])
        threshold = float(market.dropout_thresholds()[0])
        assert 5.0 < threshold < 50.0

    def test_single_vmu_equilibrium_below_threshold(self):
        """With one VMU the optimal price never prices it out."""
        market = market_with([(5.0, 1000.0)])
        eq = market.equilibrium()
        assert eq.price < float(market.dropout_thresholds()[0])
        assert eq.demands[0] > 0.0

    def test_mixed_market_drops_low_value_vmu(self):
        """A premium VMU plus a marginal one: serving only the premium
        VMU at a high price can beat serving both cheaply."""
        market = market_with([(20.0, 100.0), (5.0, 2500.0)])
        thresholds = market.dropout_thresholds()
        eq = market.equilibrium()
        # the marginal VMU's threshold is ~7.7; the optimum prices it out
        assert eq.price > float(thresholds.min())
        assert eq.demands[1] == 0.0
        assert eq.demands[0] > 0.0

    def test_equilibrium_matches_brute_force_with_kinks(self):
        """The kinked leader utility still yields the global optimum."""
        configs = [
            [(20.0, 100.0), (5.0, 2500.0)],
            [(18.0, 120.0), (6.0, 1800.0), (5.0, 3000.0)],
            [(5.0, 900.0), (5.0, 1100.0)],
            [(12.0, 150.0), (8.0, 700.0), (5.0, 1500.0)],
        ]
        for profiles in configs:
            market = market_with(profiles)
            eq = market.equilibrium()
            _, brute_value = grid_then_golden(
                market.msp_utility, 5.0, 50.0, grid_points=8192
            )
            assert eq.msp_utility == pytest.approx(brute_value, rel=1e-6), profiles

    def test_leader_utility_continuous_across_threshold(self):
        """Demand -> 0 smoothly at the threshold, so U_s is continuous."""
        market = market_with([(5.0, 1000.0), (10.0, 200.0)])
        threshold = float(market.dropout_thresholds()[0])
        below = market.msp_utility(threshold * (1.0 - 1e-9))
        above = market.msp_utility(threshold * (1.0 + 1e-9))
        assert below == pytest.approx(above, rel=1e-6)

    def test_all_but_one_dropped(self):
        """Price above every threshold but one leaves a 1-VMU market."""
        market = market_with([(20.0, 100.0), (5.0, 2000.0), (5.0, 2600.0)])
        thresholds = np.sort(market.dropout_thresholds())
        price = float((thresholds[1] + thresholds[2]) / 2.0)
        outcome = market.round_outcome(price)
        assert (outcome.demands > 0).sum() == 1

    def test_capacity_and_dropout_interact(self):
        """Capacity rationing applies to the surviving active set only."""
        config = MarketConfig(max_bandwidth=5.0)  # tight cap
        market = market_with([(20.0, 100.0), (5.0, 2500.0)], config=config)
        eq = market.equilibrium()
        total_market = market.to_market_units(eq.total_bandwidth)
        assert total_market <= 5.0 * (1.0 + 1e-9)
        assert eq.demands[1] == 0.0

    def test_equilibrium_deterministic(self):
        market = market_with([(20.0, 100.0), (5.0, 2500.0)])
        a = market.equilibrium()
        b = market.equilibrium()
        assert a.price == b.price
