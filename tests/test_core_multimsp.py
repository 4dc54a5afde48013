"""Multi-MSP oligopoly tests: Bertrand undercutting and capacity effects."""

import numpy as np
import pytest
from game_oracle import scalar_best_response_price, scalar_oligopoly_equilibrium

from repro.core.multimsp import (
    MspSpec,
    MultiMspMarket,
    OligopolyEquilibrium,
    oligopoly_from_market,
)
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.errors import ConfigurationError, GameError


def duopoly(capacity=10.0, cost=5.0) -> MultiMspMarket:
    return MultiMspMarket(
        paper_fig2_population(),
        [
            MspSpec("msp-a", unit_cost=cost, capacity=capacity),
            MspSpec("msp-b", unit_cost=cost, capacity=capacity),
        ],
    )


class TestOutcome:
    def test_cheapest_wins_all_demand(self):
        market = duopoly()
        outcome = market.outcome([20.0, 30.0])
        assert outcome.msp_sales[0] > 0.0
        assert outcome.msp_sales[1] == 0.0

    def test_tie_splits_demand(self):
        market = duopoly()
        outcome = market.outcome([20.0, 20.0])
        assert outcome.msp_sales[0] == pytest.approx(outcome.msp_sales[1])

    def test_demand_matches_monopoly_at_same_price(self):
        market = duopoly(capacity=10.0)
        mono = StackelbergMarket(
            paper_fig2_population(),
            config=MarketConfig(enforce_capacity=False),
        )
        outcome = market.outcome([20.0, 25.0])
        np.testing.assert_allclose(
            outcome.vmu_allocations, mono.round_outcome(20.0).demands
        )

    def test_capacity_rationing_per_msp(self):
        tight = duopoly(capacity=0.05)
        outcome = tight.outcome([10.0, 10.0])
        assert outcome.msp_sales[0] <= 0.05 + 1e-12
        assert outcome.msp_sales[1] <= 0.05 + 1e-12

    def test_price_vector_validated(self):
        market = duopoly()
        with pytest.raises(ConfigurationError):
            market.outcome([20.0])
        with pytest.raises(ConfigurationError):
            market.outcome([20.0, -1.0])

    @pytest.mark.parametrize(
        "prices",
        [[float("nan"), 10.0], [float("inf"), 10.0], [float("inf"), float("inf")]],
        ids=["nan", "inf", "inf-inf"],
    )
    def test_non_finite_prices_rejected(self, prices):
        market = duopoly()
        with pytest.raises(ConfigurationError, match="finite"):
            market.outcome(prices)
        with pytest.raises(ConfigurationError, match="finite"):
            market.msp_utility(0, prices[0], [prices[1]])
        with pytest.raises(ConfigurationError, match="finite"):
            market.equilibrium(initial_prices=prices)

    def test_utilities_are_margin_times_sales(self):
        market = duopoly()
        outcome = market.outcome([20.0, 30.0])
        assert outcome.msp_utilities[0] == pytest.approx(
            (20.0 - 5.0) * outcome.msp_sales[0]
        )
        assert outcome.msp_utilities[1] == 0.0


class TestBertrandCompetition:
    def test_duopoly_prices_driven_toward_cost(self):
        """Unconstrained identical duopoly: undercutting pushes prices
        near marginal cost — competition destroys the monopoly margin."""
        market = duopoly(capacity=10.0, cost=5.0)
        eq = market.equilibrium(initial_prices=[25.0, 30.0])
        monopoly_price = StackelbergMarket(
            paper_fig2_population()
        ).equilibrium().price
        assert max(eq.prices) < monopoly_price
        assert max(eq.prices) < 5.0 * 1.6  # within 60% of cost

    def test_monopoly_special_case_matches_stackelberg(self):
        """One MSP in the oligopoly model == the paper's monopoly."""
        single = MultiMspMarket(
            paper_fig2_population(),
            [MspSpec("only", unit_cost=5.0, capacity=0.5)],
        )
        eq = single.equilibrium()
        reference = StackelbergMarket(paper_fig2_population()).equilibrium()
        assert eq.converged
        assert eq.prices[0] == pytest.approx(reference.price, rel=0.01)
        assert eq.msp_utilities[0] == pytest.approx(
            reference.msp_utility, rel=0.01
        )

    def test_competition_raises_vmu_welfare(self):
        """VMUs are better off under duopoly than monopoly (lower price)."""
        market = duopoly(capacity=10.0)
        eq = market.equilibrium(initial_prices=[25.0, 30.0])
        duopoly_price = float(eq.prices.min())
        monopoly_price = StackelbergMarket(
            paper_fig2_population()
        ).equilibrium().price
        assert duopoly_price < monopoly_price

    def test_asymmetric_costs_low_cost_wins(self):
        market = MultiMspMarket(
            paper_fig2_population(),
            [
                MspSpec("cheap", unit_cost=5.0, capacity=10.0),
                MspSpec("dear", unit_cost=12.0, capacity=10.0),
            ],
        )
        eq = market.equilibrium(initial_prices=[20.0, 20.0])
        outcome = market.outcome(eq.prices.tolist())
        # The low-cost provider captures the market.
        assert outcome.msp_sales[0] > 0.0
        assert outcome.msp_sales[1] == pytest.approx(0.0, abs=1e-9)

    def test_nonconvergence_reported_not_raised(self):
        # One iteration cannot reach a fixed point from a bad start.
        market = duopoly()
        eq = market.equilibrium(initial_prices=[50.0, 6.0], max_iterations=1)
        assert not eq.converged
        assert eq.iterations == 1


class TestValidation:
    def test_duplicate_msp_ids(self):
        with pytest.raises(ConfigurationError):
            MultiMspMarket(
                paper_fig2_population(),
                [
                    MspSpec("x", unit_cost=5.0, capacity=1.0),
                    MspSpec("x", unit_cost=6.0, capacity=1.0),
                ],
            )

    def test_empty_inputs(self):
        with pytest.raises(ConfigurationError):
            MultiMspMarket([], [MspSpec("x", unit_cost=5.0, capacity=1.0)])
        with pytest.raises(ConfigurationError):
            MultiMspMarket(paper_fig2_population(), [])

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            MspSpec("x", unit_cost=0.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            MspSpec("x", unit_cost=5.0, capacity=0.0)


class TestPriceLattice:
    def test_inclusive_endpoints_small(self):
        """cost 5.0, tick 0.5, cap 6.0 — both endpoints on the lattice."""
        market = MultiMspMarket(
            paper_fig2_population(),
            [MspSpec("a", unit_cost=5.0, capacity=1.0)],
            max_price=6.0,
            price_tick=0.5,
        )
        np.testing.assert_array_equal(
            market._price_lattice(5.0), [5.0, 5.5, 6.0]
        )

    def test_default_lattice_exact(self):
        market = duopoly()
        lattice = market._price_lattice(5.0)
        assert lattice[0] == 5.0
        assert lattice[-1] == 50.0  # inclusive endpoint, never beyond
        assert lattice.size == 901
        assert np.all(np.diff(lattice) > 0)
        assert np.all(lattice <= market.max_price)

    def test_cost_above_cap_is_empty(self):
        market = duopoly()
        assert market._price_lattice(60.0).size == 0

    def test_cap_not_on_tick_grid(self):
        """Cap between ticks: stop at the last lattice point below it."""
        market = MultiMspMarket(
            paper_fig2_population(),
            [MspSpec("a", unit_cost=5.0, capacity=1.0)],
            max_price=6.2,
            price_tick=0.5,
        )
        np.testing.assert_array_equal(
            market._price_lattice(5.0), [5.0, 5.5, 6.0]
        )


def random_oligopoly(rng) -> MultiMspMarket:
    num_msps = int(rng.integers(2, 4))
    specs = [
        MspSpec(
            f"msp-{i}",
            unit_cost=float(rng.uniform(3.0, 12.0)),
            capacity=float(rng.uniform(0.05, 2.0)),
        )
        for i in range(num_msps)
    ]
    return MultiMspMarket(paper_fig2_population(), specs, price_tick=0.5)


class TestBatchedBestResponse:
    def test_batched_matches_scalar_bitwise_property(self):
        """Randomised duopolies/triopolies: the lattice-batched best
        response returns the same bits as the per-point scalar sweep."""
        rng = np.random.default_rng(1234)
        for _ in range(12):
            market = random_oligopoly(rng)
            prices = rng.uniform(5.0, 45.0, size=market.num_msps)
            prices = np.minimum(prices, market.max_price)
            for index in range(market.num_msps):
                batched = market._best_response_price(index, prices.copy())
                scalar = scalar_best_response_price(
                    market, index, prices.copy()
                )
                assert batched == scalar

    def test_equilibrium_batched_matches_scalar_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            market = random_oligopoly(rng)
            initial = rng.uniform(8.0, 40.0, size=market.num_msps).tolist()
            fast = market.equilibrium(
                initial_prices=initial, max_iterations=60, record_trace=True
            )
            slow = scalar_oligopoly_equilibrium(
                market,
                initial_prices=initial,
                max_iterations=60,
                record_trace=True,
            )
            np.testing.assert_array_equal(fast.prices, slow.prices)
            np.testing.assert_array_equal(fast.msp_utilities, slow.msp_utilities)
            assert fast.converged == slow.converged
            assert fast.iterations == slow.iterations
            assert fast.residual == slow.residual
            np.testing.assert_array_equal(
                fast.trace.profiles, slow.trace.profiles
            )
            np.testing.assert_array_equal(
                fast.trace.residuals, slow.trace.residuals
            )
            # The oracle leaves the market on its batched responder.
            assert "_best_response_price" not in vars(market)


class _ForcedCycleMarket(MultiMspMarket):
    """Deterministic 2-cycle best response — exercises the Edgeworth
    cycle detector without needing an economic cycling instance (the
    winner-take-all demand model has no residual demand, so real
    undercutting dynamics are monotone)."""

    _CYCLE = {10.0: 12.0, 12.0: 10.0}

    def _best_response_price(self, msp_index, prices):
        return self._CYCLE.get(float(prices[msp_index]), 10.0)


class TestEquilibriumDiagnostics:
    def cycling_market(self) -> MultiMspMarket:
        return _ForcedCycleMarket(
            paper_fig2_population(),
            [
                MspSpec("a", unit_cost=5.0, capacity=1.0),
                MspSpec("b", unit_cost=5.0, capacity=1.0),
            ],
        )

    def test_cycle_detected_and_bounded(self):
        eq = self.cycling_market().equilibrium(
            initial_prices=[10.0, 10.0], tolerance=1e-9
        )
        assert not eq.converged
        assert eq.cycle_length == 2
        assert eq.cycle_low == 10.0
        assert eq.cycle_high == 12.0
        assert eq.iterations < 10  # detection stops the solve immediately

    def test_damping_stabilises_forced_cycle(self):
        """Damped updates leave the lattice and spiral into the cycle
        interval instead of revisiting profiles exactly."""
        eq = self.cycling_market().equilibrium(
            initial_prices=[10.0, 10.0], damping=0.5, tolerance=1e-6
        )
        assert eq.cycle_length == 0
        assert 10.0 <= eq.prices.min() and eq.prices.max() <= 12.0

    def test_damping_validation(self):
        market = duopoly()
        with pytest.raises(GameError):
            market.equilibrium(damping=0.0)
        with pytest.raises(ConfigurationError):
            market.equilibrium(damping=1.5)
        with pytest.raises(GameError):
            market.equilibrium(max_iterations=0)

    def test_trace_shapes(self):
        market = duopoly()
        eq = market.equilibrium(initial_prices=[25.0, 30.0], max_iterations=50)
        assert eq.trace is not None
        assert eq.trace.profiles.shape == (eq.iterations + 1, 2)
        assert eq.trace.residuals.shape == (eq.iterations,)
        np.testing.assert_array_equal(eq.trace.profiles[0], [25.0, 30.0])
        np.testing.assert_array_equal(eq.trace.profiles[-1], eq.prices)
        assert eq.trace.residuals[-1] == eq.residual

    def test_trace_opt_out(self):
        eq = duopoly().equilibrium(max_iterations=5, record_trace=False)
        assert eq.trace is None

    def test_outcome_social_welfare(self):
        market = duopoly()
        outcome = market.outcome([20.0, 25.0])
        assert outcome.social_welfare == float(
            outcome.msp_utilities.sum() + outcome.vmu_utilities.sum()
        )
        assert outcome.vmu_utilities.shape == (len(market.vmus),)


class TestOligopolyFromMarket:
    def test_split_capacity_preserves_industry_capacity(self):
        base = StackelbergMarket(paper_fig2_population())
        game = oligopoly_from_market(base, 4)
        total = sum(spec.capacity for spec in game.msps)
        assert total == pytest.approx(base.config.capacity_natural)
        assert game.num_msps == 4
        assert game.max_price == base.config.max_price

    def test_replicated_capacity(self):
        base = StackelbergMarket(paper_fig2_population())
        game = oligopoly_from_market(base, 3, split_capacity=False)
        for spec in game.msps:
            assert spec.capacity == base.config.capacity_natural

    def test_monopoly_cell_matches_stackelberg_price_region(self):
        base = StackelbergMarket(paper_fig2_population())
        game = oligopoly_from_market(base, 1, price_tick=0.05)
        eq = game.equilibrium()
        reference = base.equilibrium()
        assert eq.converged
        assert eq.prices[0] == pytest.approx(reference.price, abs=0.1)


class TestEquilibriumPayloadRoundTrip:
    def test_bitwise_round_trip_through_json(self):
        import json

        from repro.experiments.api import result_from_payload, result_to_payload

        eq = duopoly().equilibrium(initial_prices=[25.0, 30.0], max_iterations=60)
        payload = json.loads(json.dumps(result_to_payload(eq)))
        back = result_from_payload(OligopolyEquilibrium, payload)
        np.testing.assert_array_equal(back.prices, eq.prices)
        np.testing.assert_array_equal(back.msp_utilities, eq.msp_utilities)
        assert back.converged == eq.converged
        assert back.iterations == eq.iterations
        assert back.residual == eq.residual
        assert back.cycle_length == eq.cycle_length
        np.testing.assert_array_equal(back.trace.profiles, eq.trace.profiles)
        np.testing.assert_array_equal(back.trace.residuals, eq.trace.residuals)

    def test_traceless_round_trip(self):
        import json

        from repro.experiments.api import result_from_payload, result_to_payload

        eq = duopoly().equilibrium(max_iterations=5, record_trace=False)
        payload = json.loads(json.dumps(result_to_payload(eq)))
        back = result_from_payload(OligopolyEquilibrium, payload)
        assert back.trace is None
        np.testing.assert_array_equal(back.prices, eq.prices)
