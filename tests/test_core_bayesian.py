"""Bayesian Stackelberg layer: scenario sampling and robust pricing.

The pins here are the contract the module advertises: the one-atom
distribution is *bitwise* the deterministic monopoly solve, and every
expected-utility number is *bitwise* the weighted sum of the per-scenario
scalar references (same reduction order).
"""

import functools

import numpy as np
import pytest

from repro.core.bayesian import (
    BayesianStackelbergMarket,
    ScenarioSpec,
    sample_market_distribution,
    sample_scenarios,
    scenario_market,
)
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.errors import ConfigurationError, InfeasibleMarketError
from repro.mobility.citygrid import CityGridSpec, city_markets

ONE_ATOM_SEEDS = (0, 1, 7)
ONE_ATOM_MARKETS = 200


def base_market() -> StackelbergMarket:
    return StackelbergMarket(paper_fig2_population())


@functools.cache
def one_atom_city(seed: int) -> list[StackelbergMarket]:
    return city_markets(CityGridSpec.for_markets(ONE_ATOM_MARKETS, seed=seed))


class TestScenarioSpec:
    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.num_scenarios == 16
        assert spec.capacity_jitter == 0.0

    def test_zero_jitter_allowed(self):
        ScenarioSpec(alpha_jitter=0.0, data_jitter=0.0, capacity_jitter=0.0)

    def test_jitter_bounds(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(alpha_jitter=-0.1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(data_jitter=1.0)  # unit jitter admits factor 0
        with pytest.raises(ConfigurationError):
            ScenarioSpec(capacity_jitter=1.5)

    def test_num_scenarios_positive(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(num_scenarios=0)


class TestScenarioSampling:
    def test_deterministic_per_index(self):
        base = base_market()
        spec = ScenarioSpec(seed=3)
        first = scenario_market(base, spec, 5)
        second = scenario_market(base, spec, 5)
        assert [v.data_size_mb for v in first.vmus] == [
            v.data_size_mb for v in second.vmus
        ]
        assert first.config.max_bandwidth == second.config.max_bandwidth

    def test_indices_independent(self):
        """Per-index spawned streams: scenario k does not depend on
        whether scenarios 0..k-1 were drawn first."""
        base = base_market()
        spec = ScenarioSpec(seed=3)
        alone = scenario_market(base, spec, 7)
        in_sequence = sample_scenarios(base, ScenarioSpec(seed=3, num_scenarios=8))[7]
        assert [v.immersion_coef for v in alone.vmus] == [
            v.immersion_coef for v in in_sequence.vmus
        ]

    def test_base_market_unchanged(self):
        base = base_market()
        before = [v.data_size_mb for v in base.vmus]
        scenario_market(base, ScenarioSpec(seed=0), 0)
        assert [v.data_size_mb for v in base.vmus] == before

    def test_zero_jitter_reproduces_base(self):
        """uniform(1, 1) is exactly 1.0, so zero jitter is the identity."""
        base = base_market()
        spec = ScenarioSpec(alpha_jitter=0.0, data_jitter=0.0, capacity_jitter=0.0)
        scenario = scenario_market(base, spec, 4)
        assert [v.data_size_mb for v in scenario.vmus] == [
            v.data_size_mb for v in base.vmus
        ]
        assert [v.immersion_coef for v in scenario.vmus] == [
            v.immersion_coef for v in base.vmus
        ]
        assert scenario.config.max_bandwidth == base.config.max_bandwidth

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_market(base_market(), ScenarioSpec(), -1)

    def test_distribution_size(self):
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=5, seed=1)
        )
        assert dist.num_scenarios == 5
        np.testing.assert_array_equal(dist.weights, np.full(5, 0.2))


class TestBayesianMarketValidation:
    def test_needs_scenarios(self):
        with pytest.raises(ConfigurationError):
            BayesianStackelbergMarket([])

    def test_mismatched_unit_cost_rejected(self):
        base = base_market()
        other = StackelbergMarket(
            paper_fig2_population(),
            config=MarketConfig(unit_cost=base.config.unit_cost + 1.0),
        )
        with pytest.raises(ConfigurationError):
            BayesianStackelbergMarket([base, other])

    def test_weight_validation(self):
        base = base_market()
        with pytest.raises(ConfigurationError):
            BayesianStackelbergMarket([base, base], weights=[1.0])
        with pytest.raises(ConfigurationError):
            BayesianStackelbergMarket([base, base], weights=[1.0, 0.0])
        with pytest.raises(ConfigurationError):
            BayesianStackelbergMarket([base, base], weights=[1.0, float("nan")])

    def test_weights_normalised(self):
        base = base_market()
        market = BayesianStackelbergMarket([base, base], weights=[3.0, 1.0])
        np.testing.assert_array_equal(market.weights, [0.75, 0.25])


class TestExpectedUtility:
    def test_weighted_sum_of_scalar_references_bitwise(self):
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=4, seed=11)
        )
        weights = dist.weights
        for price in (8.0, 17.5, 25.0, 42.0):
            expected = weights[0] * dist.scenarios[0].msp_utility(price)
            for m in range(1, dist.num_scenarios):
                expected += weights[m] * dist.scenarios[m].msp_utility(price)
            assert dist.expected_utility(price) == expected

    def test_scenario_utilities_match_scalar(self):
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=3, seed=2)
        )
        price = 20.0
        values = dist.scenario_utilities(price)
        reference = np.array(
            [scenario.msp_utility(price) for scenario in dist.scenarios]
        )
        np.testing.assert_array_equal(values, reference)

    def test_vector_form_matches_scalar_form(self):
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=3, seed=9)
        )
        prices = np.array([10.0, 20.0, 30.0])
        vector = dist.expected_utilities(prices)
        scalar = np.array([dist.expected_utility(float(p)) for p in prices])
        np.testing.assert_array_equal(vector, scalar)


class TestBayesianEquilibrium:
    @pytest.mark.parametrize("index", range(ONE_ATOM_MARKETS))
    @pytest.mark.parametrize("seed", ONE_ATOM_SEEDS)
    def test_one_atom_is_bitwise_deterministic_solve(self, seed, index):
        """A point-mass distribution IS the deterministic game, on every
        city market of three grids (an infeasible one raises in both)."""
        base = one_atom_city(seed)[index]
        try:
            reference = base.equilibrium()
        except InfeasibleMarketError:
            with pytest.raises(InfeasibleMarketError):
                BayesianStackelbergMarket([base]).equilibrium()
            return
        bayes = BayesianStackelbergMarket([base]).equilibrium()
        assert bayes.price == reference.price
        assert bayes.expected_utility == reference.msp_utility
        assert bayes.scenario_utilities.shape == (1,)
        assert bayes.scenario_utilities[0] == reference.msp_utility

    def test_robust_price_beats_oracle_prices_in_expectation(self):
        """The robust price maximises E[utility]; each scenario's oracle
        price is just another feasible candidate."""
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=6, seed=4)
        )
        equilibrium = dist.equilibrium()
        oracles = dist.oracle_equilibria()
        for price, feasible in zip(oracles.prices, oracles.feasible):
            if not feasible:
                continue
            assert (
                equilibrium.expected_utility
                >= dist.expected_utility(float(price)) - 1e-9
            )

    def test_equilibrium_fields_consistent(self):
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=4, seed=8)
        )
        equilibrium = dist.equilibrium()
        assert equilibrium.feasible.shape == (4,)
        assert bool(equilibrium.feasible.all())
        assert dist.unit_cost <= equilibrium.price <= dist.max_price
        # Reported scenario utilities are the 1-D path at the robust price.
        np.testing.assert_array_equal(
            equilibrium.scenario_utilities,
            dist.scenario_utilities(equilibrium.price),
        )
        np.testing.assert_array_equal(equilibrium.weights, dist.weights)

    def test_unrefined_equilibrium_on_candidate_grid(self):
        dist = sample_market_distribution(
            base_market(), ScenarioSpec(num_scenarios=2, seed=5)
        )
        # The candidate argmax alone (the solve before its golden
        # cross-check) never beats the equilibrium the solve reports.
        candidates, _ = dist.stack._candidate_rows(slice(None))
        coarse = float(dist.expected_utilities(candidates.reshape(-1)).max())
        assert dist.equilibrium().expected_utility >= coarse
