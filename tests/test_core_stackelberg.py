"""Stackelberg-market tests: the paper's theorems, numbers, and constraints.

This file is the heart of the reproduction's correctness story:
- Theorem 1 (follower best response is the unique argmax) is checked by
  property-based grid search;
- Theorem 2 (leader's closed form) is cross-validated against a global
  numeric search over random markets;
- every numeric anchor the paper reports (p* = 25/34, MSP utility
  7.03/20.35, bandwidth 27.9/23.4) is asserted within tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from game_oracle import is_concave_on, verify_best_response, vmu_utility

from repro.channel.link import paper_link
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile, paper_fig2_population, uniform_population
from repro.errors import ConfigurationError, InfeasibleMarketError
from repro.game.solvers import grid_then_golden


@pytest.fixture
def market() -> StackelbergMarket:
    return StackelbergMarket(paper_fig2_population())


def random_market(alphas, datas, cost) -> StackelbergMarket:
    vmus = [
        VmuProfile(f"v{i}", data_size_mb=d, immersion_coef=a)
        for i, (a, d) in enumerate(zip(alphas, datas))
    ]
    return StackelbergMarket(vmus, config=MarketConfig(unit_cost=cost))


class TestFollowerStage:
    def test_best_response_closed_form(self, market):
        p = 20.0
        se = market.spectral_efficiency
        expected = np.array([5.0 / p - 2.0 / se, 5.0 / p - 1.0 / se])
        np.testing.assert_allclose(market.round_outcome(p).demands, expected)

    def test_best_response_truncates_at_dropout(self, market):
        thresholds = market.dropout_thresholds()
        price = float(thresholds.min()) * 1.01
        demands = market.round_outcome(price).demands
        assert demands[0] == 0.0  # the big-D VMU drops out first
        assert demands[1] > 0.0

    def test_dropout_thresholds_formula(self, market):
        se = market.spectral_efficiency
        np.testing.assert_allclose(
            market.dropout_thresholds(), [5.0 * se / 2.0, 5.0 * se / 1.0]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=6.0, max_value=49.0),
        st.floats(min_value=5.0, max_value=20.0),
        st.floats(min_value=1.0, max_value=3.0),
    )
    def test_theorem1_best_response_is_argmax(self, price, alpha, data):
        """Theorem 1: Eq. (8) maximises the strictly concave U_n(b)."""
        market = random_market([alpha], [data * 100.0], 5.0)
        se = market.spectral_efficiency
        b_star = float(market.round_outcome(price).demands[0])

        def utility(b):
            return vmu_utility(alpha, data, b, price, se)

        assert verify_best_response(utility, b_star, 0.0, 2.0, tolerance=1e-7)

    def test_follower_utility_concave(self, market):
        se = market.spectral_efficiency
        assert is_concave_on(
            lambda b: vmu_utility(5.0, 2.0, b, 20.0, se), 0.0, 2.0
        )


class TestLeaderStage:
    def test_unconstrained_closed_form(self, market):
        # p* = sqrt(C SE Σα / ΣD).
        se = market.spectral_efficiency
        expected = np.sqrt(5.0 * se * 10.0 / 3.0)
        assert market.unconstrained_equilibrium_price() == pytest.approx(expected)

    def test_leader_utility_concave_between_dropouts(self, market):
        thresholds = market.dropout_thresholds()
        assert is_concave_on(
            market.msp_utility, 5.0, float(thresholds.min()) - 1.0
        )

    def test_equilibrium_is_global_argmax(self, market):
        eq = market.equilibrium()
        argmax, value = grid_then_golden(
            market.msp_utility, 5.0, 50.0, grid_points=2048
        )
        assert eq.msp_utility == pytest.approx(value, rel=1e-9)
        assert eq.price == pytest.approx(argmax, abs=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(min_value=5.0, max_value=20.0), min_size=1, max_size=5),
        st.floats(min_value=1.0, max_value=9.0),
    )
    def test_theorem2_closed_form_matches_numeric(self, alphas, cost):
        """Closed-form equilibrium == brute numeric search, random markets."""
        datas = [100.0 + 40.0 * i for i in range(len(alphas))]
        market = random_market(alphas, datas, cost)
        eq = market.equilibrium()
        _, numeric_value = grid_then_golden(
            market.msp_utility, cost, 50.0, grid_points=4096
        )
        assert eq.msp_utility == pytest.approx(numeric_value, rel=1e-6)


class TestPaperAnchors:
    """Every figure-level number the paper states, within tolerance."""

    def test_price_at_cost_5(self, market):
        assert market.equilibrium().price == pytest.approx(25.0, abs=0.5)

    def test_price_at_cost_9(self, market):
        eq = market.with_unit_cost(9.0).equilibrium()
        assert eq.price == pytest.approx(34.0, abs=0.1)

    def test_bandwidth_at_cost_6(self, market):
        eq = market.with_unit_cost(6.0).equilibrium()
        total = market.to_market_units(eq.total_bandwidth)
        assert total == pytest.approx(27.9, abs=0.5)

    def test_bandwidth_at_cost_8(self, market):
        eq = market.with_unit_cost(8.0).equilibrium()
        total = market.to_market_units(eq.total_bandwidth)
        assert total == pytest.approx(23.4, abs=0.2)

    def test_msp_utility_two_vmus(self, market):
        eq = market.with_vmus(uniform_population(2)).equilibrium()
        assert eq.msp_utility == pytest.approx(7.03, abs=0.02)

    def test_msp_utility_six_vmus(self, market):
        eq = market.with_vmus(uniform_population(6)).equilibrium()
        assert eq.msp_utility == pytest.approx(20.35, abs=0.1)

    def test_price_flat_then_rising_in_n(self, market):
        prices = [
            market.with_vmus(uniform_population(n)).equilibrium().price
            for n in range(1, 7)
        ]
        # Flat while capacity is slack (N <= 3), then strictly rising.
        assert prices[0] == pytest.approx(prices[2], rel=1e-6)
        assert prices[3] > prices[2]
        assert prices[5] > prices[4] > prices[3]

    def test_avg_bandwidth_flat_then_falling_in_n(self, market):
        avg = []
        for n in range(1, 7):
            m = market.with_vmus(uniform_population(n))
            eq = m.equilibrium()
            avg.append(m.to_market_units(eq.total_bandwidth) / n)
        assert avg[0] == pytest.approx(avg[2], rel=1e-6)
        assert avg[5] < avg[4] < avg[3] < avg[2]

    def test_avg_vmu_utility_decreases_with_competition(self, market):
        values = []
        for n in (2, 6):
            eq = market.with_vmus(uniform_population(n)).equilibrium()
            values.append(eq.total_vmu_utility / n)
        assert values[1] < values[0]  # paper reports a 12.8% drop

    def test_utilities_decrease_with_cost(self, market):
        msp, vmu = [], []
        for cost in (5.0, 7.0, 9.0):
            eq = market.with_unit_cost(cost).equilibrium()
            msp.append(eq.msp_utility)
            vmu.append(eq.total_vmu_utility)
        assert msp[0] > msp[1] > msp[2]
        assert vmu[0] > vmu[1] > vmu[2]

    def test_price_increases_with_cost(self, market):
        prices = [
            market.with_unit_cost(c).equilibrium().price for c in (5.0, 6.0, 7.0, 8.0, 9.0)
        ]
        assert all(a < b for a, b in zip(prices, prices[1:]))


class TestConstraints:
    def test_capacity_binding_flag(self, market):
        constrained = market.with_vmus(uniform_population(6))
        assert constrained.equilibrium().capacity_binding
        assert not market.equilibrium().capacity_binding

    def test_capacity_never_exceeded(self, market):
        crowded = market.with_vmus(uniform_population(6))
        for price in np.linspace(5.0, 50.0, 50):
            outcome = crowded.round_outcome(float(price))
            total = crowded.to_market_units(outcome.total_allocated)
            assert total <= crowded.config.max_bandwidth * (1.0 + 1e-9)

    def test_price_cap_binding(self):
        # Tiny capacity forces the price to the cap.
        config = MarketConfig(max_bandwidth=5.0)
        market = StackelbergMarket(paper_fig2_population(), config=config)
        eq = market.equilibrium()
        assert eq.price == pytest.approx(50.0)
        assert eq.price_cap_binding

    def test_enforce_capacity_false_ignores_bmax(self):
        config = MarketConfig(max_bandwidth=5.0, enforce_capacity=False)
        market = StackelbergMarket(paper_fig2_population(), config=config)
        eq = market.equilibrium()
        assert eq.price == pytest.approx(
            market.unconstrained_equilibrium_price(), rel=1e-6
        )

    def test_infeasible_market_raises(self):
        # Drop-out threshold below cost for every VMU: α SE / D < C.
        vmus = [VmuProfile("v", data_size_mb=30000.0, immersion_coef=5.0)]
        market = StackelbergMarket(vmus, config=MarketConfig(unit_cost=45.0))
        with pytest.raises(InfeasibleMarketError):
            market.equilibrium()

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError):
            StackelbergMarket([])

    @pytest.mark.filterwarnings("error")
    def test_link_with_zero_spectral_efficiency_rejected(self, market):
        """A fading gain so small that ``log2(1 + SNR)`` rounds to 0 would
        divide every best response by zero: the market refuses the link."""
        link = paper_link().with_fading_gain(1e-320)
        assert link.spectral_efficiency == 0.0
        with pytest.raises(ConfigurationError, match="spectral efficiency"):
            StackelbergMarket(paper_fig2_population(), link=link)
        with pytest.raises(ConfigurationError, match="spectral efficiency"):
            StackelbergMarket(market.vmus, config=market.config, link=link)

    def test_invalid_price_rejected(self, market):
        with pytest.raises(ConfigurationError):
            market.round_outcome(0.0)
        with pytest.raises(ConfigurationError):
            market.round_outcome(float("nan"))
        # Finite and > 0, yet α/p overflows: a typed error, not NaN.
        with (
            pytest.warns(RuntimeWarning),
            pytest.raises(ConfigurationError, match="non-finite demand"),
        ):
            market.round_outcome(1e-308)

    def test_cost_above_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(unit_cost=60.0, max_price=50.0)


class TestOutcomeConsistency:
    def test_msp_utility_is_margin_times_allocation(self, market):
        outcome = market.round_outcome(20.0)
        assert outcome.msp_utility == pytest.approx(
            (20.0 - 5.0) * outcome.allocations.sum()
        )

    def test_allocations_equal_demands_when_slack(self, market):
        outcome = market.round_outcome(30.0)
        np.testing.assert_allclose(outcome.allocations, outcome.demands)

    def test_vmu_utilities_at_equilibrium_positive(self, market):
        eq = market.equilibrium()
        assert (eq.vmu_utilities > 0.0).all()

    def test_to_market_units(self, market):
        assert market.to_market_units(0.5) == pytest.approx(50.0)

    def test_accessors(self, market):
        assert market.num_vmus == 2
        assert len(market.vmus) == 2
        np.testing.assert_allclose(market.immersion_coefs, [5.0, 5.0])
        np.testing.assert_allclose(market.data_units, [2.0, 1.0])

    def test_with_unit_cost_does_not_mutate(self, market):
        market.with_unit_cost(9.0)
        assert market.config.unit_cost == 5.0

    def test_with_vmus_does_not_mutate(self, market):
        market.with_vmus(uniform_population(4))
        assert market.num_vmus == 2
