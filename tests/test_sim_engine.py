"""Batched simulation engine tests.

The load-bearing guarantee: the batched price-grid evaluation and the
scalar per-price Stackelberg solves are the *same* computation — verified
here on 50 random markets (property test), on the equilibrium solver, and
on the policy-evaluation fast paths.
"""

import numpy as np
import pytest
from game_oracle import (
    follower_best_response,
    msp_utility,
    proportional_rationing,
    run_rounds,
    scalar_landscape,
    vmu_utilities,
)

from repro.baselines import FixedPricing, GreedyPricing, OraclePricing, RandomPricing
from repro.channel.ofdma import _rationing_rows
from repro.core.mechanism import GameHistory
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.core.utilities import (
    _follower_best_response_rows,
    _msp_utilities_rows,
    _vmu_utilities_rows,
)
from repro.entities.vmu import VmuProfile, paper_fig2_population
from repro.errors import ConfigurationError
from repro.sim import (
    PriceBatchOutcome,
    plan_prices,
    play_policies_stacked,
    uniform_price_grid,
)


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


def random_market(rng: np.random.Generator) -> StackelbergMarket:
    """A random-but-valid market: population, cost, and capacity all drawn."""
    num_vmus = int(rng.integers(1, 7))
    vmus = [
        VmuProfile(
            vmu_id=f"vmu-{n}",
            data_size_mb=float(rng.uniform(50.0, 400.0)),
            immersion_coef=float(rng.uniform(1.0, 10.0)),
        )
        for n in range(num_vmus)
    ]
    config = MarketConfig(
        unit_cost=float(rng.uniform(1.0, 10.0)),
        max_price=float(rng.uniform(20.0, 80.0)),
        max_bandwidth=float(rng.uniform(5.0, 60.0)),
    )
    return StackelbergMarket(vmus, config=config)


class TestVectorizedLandscapeProperty:
    def test_fifty_random_markets_match_scalar_solves(self):
        """Satellite acceptance: for 50 random markets the vectorised
        price-grid leader landscape matches per-price scalar solves to
        1e-9 (bitwise equality is expected and asserted where exact)."""
        rng = np.random.default_rng(20230429)
        for _ in range(50):
            market = random_market(rng)
            grid = uniform_price_grid(
                market.config.unit_cost, market.config.max_price, 64
            )
            batched = market.outcomes_batch(grid)
            scalar = scalar_landscape(market, grid)
            np.testing.assert_allclose(
                batched.msp_utilities, scalar.msp_utilities, rtol=0.0, atol=1e-9
            )
            np.testing.assert_allclose(
                batched.allocations, scalar.allocations, rtol=0.0, atol=1e-9
            )
            np.testing.assert_allclose(
                batched.vmu_utilities, scalar.vmu_utilities, rtol=0.0, atol=1e-9
            )
            assert (batched.capacity_binding == scalar.capacity_binding).all()
            # The scalar path delegates to the batched path with P = 1, so
            # the agreement is actually exact, not just 1e-9.
            assert (batched.msp_utilities == scalar.msp_utilities).all()

    def test_equilibrium_unchanged_by_vectorized_scan(self):
        """The vectorised grid scan inside equilibrium() must find the same
        optimum as a brute-force scalar scan."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            market = random_market(rng)
            eq = market.equilibrium()
            grid = uniform_price_grid(
                market.config.unit_cost, market.config.max_price, 2048
            )
            brute = float(market.msp_utilities(grid).max())
            assert eq.msp_utility >= brute - 1e-6


class TestPriceBatchOutcome:
    def test_row_matches_round_outcome(self, market):
        prices = np.array([6.0, 20.0, 45.0])
        batch = market.outcomes_batch(prices)
        assert len(batch) == 3
        for i, price in enumerate(prices):
            outcome = market.round_outcome(float(price))
            row = batch.row(i)
            assert row.price == outcome.price
            assert row.msp_utility == outcome.msp_utility
            assert (row.allocations == outcome.allocations).all()
            assert (row.vmu_utilities == outcome.vmu_utilities).all()
            assert row.capacity_binding == outcome.capacity_binding

    def test_best_picks_argmax(self, market):
        batch = market.leader_landscape(grid_points=128)
        best = batch.best()
        assert best.msp_utility == pytest.approx(float(batch.msp_utilities.max()))

    def test_invalid_price_batches_rejected(self, market):
        with pytest.raises(ConfigurationError):
            market.outcomes_batch(np.array([]))
        with pytest.raises(ConfigurationError):
            market.outcomes_batch(np.array([10.0, -1.0]))
        with pytest.raises(ConfigurationError):
            market.outcomes_batch(np.array([[10.0, 20.0]]))

    def test_leader_landscape_spans_feasible_interval(self, market):
        batch = market.leader_landscape(grid_points=16)
        config = market.config
        assert batch.prices[0] == pytest.approx(config.unit_cost)
        assert batch.prices[-1] == pytest.approx(config.max_price)


def one_market(market):
    """The market's parameters as the kernels' ``M = 1`` rows."""
    return (
        market.immersion_coefs[np.newaxis],
        market.data_units[np.newaxis],
        np.array([market.spectral_efficiency]),
    )


class TestVectorizedPrimitives:
    """The ``M = 1`` grid form of each production kernel, one ``(1, P)``
    price grid, against the oracle's scalar form at every price."""

    def test_follower_best_response_price_batch(self, market):
        prices = np.array([10.0, 25.0, 40.0])
        alphas, data, se = one_market(market)
        batched = _follower_best_response_rows(alphas, data, prices[np.newaxis], se)
        assert batched.shape == (1, 3, market.num_vmus)
        for i, price in enumerate(prices):
            scalar = follower_best_response(
                market.immersion_coefs,
                market.data_units,
                float(price),
                market.spectral_efficiency,
            )
            assert (batched[0, i] == scalar).all()

    def test_msp_utility_price_batch(self):
        prices = np.array([10.0, 20.0])
        bands = np.array([[1.0, 2.0], [0.5, 0.25]])
        batched = _msp_utilities_rows(
            prices[np.newaxis], np.array([5.0]), bands.sum(axis=-1)[np.newaxis]
        )
        assert batched.shape == (1, 2)
        for i, price in enumerate(prices):
            assert batched[0, i] == msp_utility(float(price), 5.0, bands[i])

    def test_vmu_utilities_price_batch(self, market):
        prices = np.array([10.0, 25.0])
        alphas, data, se = one_market(market)
        bands = _follower_best_response_rows(alphas, data, prices[np.newaxis], se)
        batched = _vmu_utilities_rows(alphas, data, bands, prices[np.newaxis], se)
        for i, price in enumerate(prices):
            scalar = vmu_utilities(
                market.immersion_coefs,
                market.data_units,
                bands[0, i],
                float(price),
                market.spectral_efficiency,
            )
            assert (batched[0, i] == scalar).all()

    def test_proportional_rationing_batch_rows_independent(self):
        demands = np.array([[[6.0, 2.0], [1.0, 2.0], [0.0, 0.0]]])
        granted = _rationing_rows(demands, np.array([4.0]), demands.sum(axis=-1))
        assert granted.shape == demands.shape
        assert granted[0].sum(axis=-1)[0] == pytest.approx(4.0)
        assert (granted[0, 1] == demands[0, 1]).all()
        assert (granted[0, 2] == 0.0).all()
        for row in range(3):
            scalar = proportional_rationing(demands[0, row], 4.0)
            assert (granted[0, row] == scalar).all()


def play_one(market, policy, num_rounds):
    """The ``M = 1`` call of the stacked evaluator."""
    (played,) = play_policies_stacked([market], [policy], num_rounds)
    return played


class TestPlayPolicy:
    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda market: RandomPricing(5.0, 50.0, seed=3),
            lambda market: GreedyPricing(5.0, 50.0, seed=11),
            lambda market: FixedPricing(20.0),
            lambda market: OraclePricing(market),
        ],
        ids=["random", "greedy", "fixed", "oracle"],
    )
    def test_pinned_to_oracle_round_loop(self, market, make_policy):
        """Prices, utilities, allocations and history records of the
        stacked evaluator equal the classic round loop's, bitwise."""
        reference, outcomes = run_rounds(market, make_policy(market), 30)
        history, played = play_one(market, make_policy(market), 30)
        assert history.records == reference.records
        for k, outcome in enumerate(outcomes):
            assert played.prices[k] == outcome.price
            assert played.msp_utilities[k] == outcome.msp_utility
            assert (played.allocations[k] == outcome.allocations).all()
            assert (played.vmu_utilities[k] == outcome.vmu_utilities).all()

    def test_matches_run_rounds_for_random(self, market):
        """The price-vector fast path must reproduce the sequential loop
        exactly — same RNG stream consumption, same outcomes."""
        _, outcomes = run_rounds(market, RandomPricing(5.0, 50.0, seed=3), 20)
        history, played = play_one(market, RandomPricing(5.0, 50.0, seed=3), 20)
        assert len(history) == 20
        for k, outcome in enumerate(outcomes):
            assert played.prices[k] == outcome.price
            assert played.msp_utilities[k] == outcome.msp_utility
            assert (played.allocations[k] == outcome.allocations).all()

    def test_matches_run_rounds_for_greedy(self, market):
        """Greedy has no fast path; the memoised sequential path must agree
        with the classic loop (identical RNG stream and history)."""
        history_a, outcomes = run_rounds(
            market, GreedyPricing(5.0, 50.0, seed=11), 30
        )
        history_b, played = play_one(
            market, GreedyPricing(5.0, 50.0, seed=11), 30
        )
        assert [r.price for r in history_b.records] == [
            r.price for r in history_a.records
        ]
        for k, outcome in enumerate(outcomes):
            assert played.msp_utilities[k] == outcome.msp_utility

    def test_fixed_and_oracle_use_fast_path(self, market):
        for policy in (FixedPricing(20.0), OraclePricing(market)):
            assert plan_prices(policy, GameHistory(), 5) is not None
            _, played = play_one(market, policy, 5)
            assert len(played) == 5
            assert (played.prices == played.prices[0]).all()

    def test_greedy_declines_fast_path(self, market):
        assert plan_prices(GreedyPricing(5.0, 50.0, seed=0), GameHistory(), 5) is None

    def test_history_records_appended(self, market):
        history, played = play_one(market, FixedPricing(20.0), 4)
        assert [r.round_index for r in history.records] == [0, 1, 2, 3]
        assert history.records[0].msp_utility == played.msp_utilities[0]

    def test_zero_rounds_rejected(self, market):
        with pytest.raises(ValueError):
            play_one(market, FixedPricing(20.0), 0)

    def test_played_rounds_best_index(self, market):
        _, played = play_one(market, RandomPricing(5.0, 50.0, seed=5), 25)
        assert played.best_index == int(np.argmax(played.msp_utilities))
        assert isinstance(played, PriceBatchOutcome)


class _BadPlanner(FixedPricing):
    """Commits to one price too few."""

    def propose_prices(self, history, count):
        return np.full(count - 1, self.price)


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda market: play_policies_stacked(
                [market], [_BadPlanner(20.0)], 5
            ),
            lambda market: play_policies_stacked(
                [market, market], [FixedPricing(20.0)], 5
            ),
            lambda market: play_policies_stacked(
                [market], [FixedPricing(20.0)], 0
            ),
            lambda market: GameHistory().last(-1),
        ],
        ids=["plan_shape", "length_mismatch", "zero_rounds", "negative_last"],
    )
    def test_configuration_error(self, market, call):
        with pytest.raises(ConfigurationError):
            call(market)
