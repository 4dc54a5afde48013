"""Stacked equilibrium solve: must equal per-market ``equilibrium()`` bitwise.

The acceptance criterion of the stacked solver: solving ``M`` heterogeneous
markets' Stackelberg equilibria in one pass — candidate matrix, one stacked
evaluation, argmax — reproduces the per-market
``equilibrium()`` loop **bitwise**, including ragged populations and
infeasible-market masking.
"""

import numpy as np
import pytest
from game_oracle import segment_candidates
from training_oracle import MigrationGameEnv

from repro.baselines import OraclePricing
from repro.core import MarketStack
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile, paper_fig2_population, sample_population
from repro.env.vector import VectorMigrationEnv
from repro.errors import InfeasibleMarketError
from repro.game.solvers import (
    golden_section_maximize,
    golden_section_maximize_batch,
    grid_then_golden,
    grid_then_golden_batch,
)


def random_markets(count, *, root_seed=0, max_vmus=11):
    """Heterogeneous markets: random (ragged) populations, costs, caps."""
    rng = np.random.default_rng(root_seed)
    markets = []
    for _ in range(count):
        population = sample_population(
            int(rng.integers(1, max_vmus + 1)),
            seed=int(rng.integers(0, 2**31)),
        )
        config = MarketConfig(
            unit_cost=float(rng.uniform(3.0, 9.0)),
            max_price=float(rng.uniform(30.0, 60.0)),
            max_bandwidth=float(rng.uniform(20.0, 60.0)),
            enforce_capacity=bool(rng.integers(0, 2)),
        )
        markets.append(StackelbergMarket(population, config=config))
    return markets


def dropout_markets():
    """Markets whose drop-out thresholds fall inside [C, p_max] (kinks)."""
    profiles = [
        [(20.0, 100.0), (5.0, 2500.0)],
        [(18.0, 120.0), (6.0, 1800.0), (5.0, 3000.0)],
        [(5.0, 900.0), (5.0, 1100.0)],
        [(12.0, 150.0), (8.0, 700.0), (5.0, 1500.0)],
    ]
    markets = []
    for spec in profiles:
        vmus = [
            VmuProfile(f"v{i}", data_size_mb=d, immersion_coef=a)
            for i, (a, d) in enumerate(spec)
        ]
        markets.append(
            StackelbergMarket(vmus, config=MarketConfig(enforce_capacity=False))
        )
    return markets


def infeasible_market():
    """Every threshold below the unit cost: no profitable trade."""
    vmus = [VmuProfile("v", data_size_mb=30000.0, immersion_coef=5.0)]
    return StackelbergMarket(vmus, config=MarketConfig(unit_cost=45.0))


def assert_equilibria_match(stacked, markets):
    for m, market in enumerate(markets):
        reference = market.equilibrium()
        solved = stacked.equilibrium(m)
        assert solved.price == reference.price
        assert solved.msp_utility == reference.msp_utility
        assert (solved.demands == reference.demands).all()
        assert (solved.vmu_utilities == reference.vmu_utilities).all()
        assert solved.capacity_binding == reference.capacity_binding
        assert solved.price_cap_binding == reference.price_cap_binding


class TestStackedEqualsPerMarket:
    def test_50_random_ragged_markets_match_bitwise(self):
        """Property: across 50 random heterogeneous markets (ragged N,
        mixed capacity enforcement) the stacked equilibria equal per-market
        ``equilibrium()`` calls bitwise."""
        markets = random_markets(50, root_seed=11)
        stacked = MarketStack(markets).equilibria_stacked()
        assert stacked.num_markets == 50
        assert stacked.feasible.all()
        assert_equilibria_match(stacked, markets)

    def test_dropout_regime_matches_bitwise(self):
        """Markets with thresholds inside [C, p_max]: the kinked candidate
        enumeration stays bitwise-equal across the stack."""
        markets = dropout_markets()
        stacked = MarketStack(markets).equilibria_stacked()
        assert_equilibria_match(stacked, markets)

    def test_single_market_stack_is_equilibrium(self):
        """M = 1 broadcast case: the market's own ``equilibrium()`` is one
        row of the stacked solve (they share one code path)."""
        market = StackelbergMarket(paper_fig2_population())
        solved = MarketStack([market]).equilibria_stacked()
        reference = market.equilibrium()
        assert solved.equilibrium(0).price == reference.price
        assert solved.equilibrium(0).msp_utility == reference.msp_utility

    def test_segment_candidates_cross_check(self):
        """The scalar reference enumeration brackets the same optimum the
        stacked candidate matrix finds."""
        for market in dropout_markets():
            candidates = np.asarray(segment_candidates(market))
            best_reference = float(market.msp_utilities(candidates).max())
            equilibrium = market.equilibrium()
            assert equilibrium.msp_utility == pytest.approx(
                best_reference, rel=1e-9
            )


class TestInfeasibleMasking:
    def test_infeasible_member_is_masked_not_fatal(self):
        markets = random_markets(6, root_seed=3)
        markets.insert(2, infeasible_market())
        stacked = MarketStack(markets).equilibria_stacked()
        assert not stacked.feasible[2]
        assert stacked.feasible.sum() == 6
        assert np.isnan(stacked.prices[2])
        assert np.isnan(stacked.msp_utilities[2])
        assert not stacked.capacity_binding[2]
        with pytest.raises(InfeasibleMarketError, match="no profitable trade"):
            stacked.equilibrium(2)
        with pytest.raises(InfeasibleMarketError):
            markets[2].equilibrium()  # per-market semantics agree

    def test_feasible_members_unaffected_by_masked_one(self):
        feasible = random_markets(5, root_seed=9)
        mixed = feasible[:2] + [infeasible_market()] + feasible[2:]
        solved = MarketStack(mixed).equilibria_stacked()
        assert_equilibria_match(
            MarketStack(feasible).equilibria_stacked(), feasible
        )
        for m, market in enumerate(mixed):
            if bool(solved.feasible[m]):
                reference = market.equilibrium()
                assert solved.equilibrium(m).price == reference.price

    def test_equilibria_list_has_none_for_masked(self):
        markets = [StackelbergMarket(paper_fig2_population()), infeasible_market()]
        solved = MarketStack(markets).equilibria_stacked()
        listed = solved.equilibria()
        assert listed[0] is not None and listed[1] is None


class TestBatchedSolvers:
    def test_golden_batch_matches_scalar_bitwise(self):
        """Lockstep golden sections equal M independent scalar searches."""
        peaks = np.array([3.0, 7.5, 12.25, 20.0])

        def batched(x):
            return -((np.asarray(x) - peaks) ** 2)

        lows = np.array([1.0, 1.0, 10.0, 19.999999999999])
        highs = np.array([6.0, 30.0, 14.0, 20.000000000001])
        best, values = golden_section_maximize_batch(batched, lows, highs)
        for m in range(peaks.size):
            ref_best, ref_value = golden_section_maximize(
                lambda x, m=m: -((x - peaks[m]) ** 2),
                float(lows[m]),
                float(highs[m]),
            )
            assert best[m] == ref_best
            assert values[m] == ref_value

    def test_grid_then_golden_batch_matches_scalar_bitwise(self):
        peaks = np.array([2.0, 9.0, 4.5])

        def batched(x):
            x = np.asarray(x)
            p = peaks[:, np.newaxis] if x.ndim == 2 else peaks
            return np.sin(x / 3.0) - (x - p) ** 2 / 40.0

        lows = np.array([1.0, 1.0, 4.5])
        highs = np.array([12.0, 10.0, 4.5])
        best, values = grid_then_golden_batch(batched, lows, highs)
        for m in range(peaks.size):
            ref_best, ref_value = grid_then_golden(
                lambda x, m=m: float(np.sin(x / 3.0) - (x - peaks[m]) ** 2 / 40.0),
                float(lows[m]),
                float(highs[m]),
                vector_objective=lambda x, m=m: np.sin(x / 3.0)
                - (x - peaks[m]) ** 2 / 40.0,
            )
            assert best[m] == ref_best
            assert values[m] == ref_value


class TestReroutedCallers:
    def test_oracle_from_stack_equals_per_market(self):
        markets = random_markets(8, root_seed=21)
        stacked_policies = OraclePricing.from_stack(markets)
        for market, policy in zip(markets, stacked_policies):
            assert (
                policy.equilibrium_price
                == OraclePricing(market).equilibrium_price
            )

    def test_vector_env_equilibria_one_stacked_solve(self):
        markets = random_markets(5, root_seed=29, max_vmus=4)
        # A fleet needs one observation layout: equalise N.
        populations = [sample_population(3, seed=s) for s in range(5)]
        fleet = [
            StackelbergMarket(pop, config=markets[i].config)
            for i, pop in enumerate(populations)
        ]
        env = VectorMigrationEnv.from_markets(fleet, seed=0)
        solved = env.equilibria()
        for market, equilibrium in zip(fleet, solved):
            assert equilibrium.price == market.equilibrium().price

    def test_vector_env_batched_reset_bit_equal_to_sequential(self):
        populations = [sample_population(3, seed=s) for s in range(4)]
        configs = [
            MarketConfig(unit_cost=float(4.0 + i), max_bandwidth=30.0 + i)
            for i in range(4)
        ]
        fleet = [
            StackelbergMarket(pop, config=config)
            for pop, config in zip(populations, configs)
        ]
        batched = VectorMigrationEnv.from_markets(fleet, seed=123)
        observations = batched.reset()
        # The from_markets seed contract: env 0 on the root seed, the rest
        # on its SeedSequence children.
        seeds = [123, *np.random.SeedSequence(123).spawn(3)]
        reference = np.stack(
            [
                MigrationGameEnv(market, seed=seed).reset()
                for market, seed in zip(fleet, seeds)
            ]
        )
        assert (observations == reference).all()


def assert_stacks_bitwise_equal(reference, solved):
    """Every field of two StackedEquilibria equal bitwise (NaN == NaN)."""
    for name in ("prices", "demands", "msp_utilities", "vmu_utilities"):
        assert np.array_equal(
            getattr(reference, name), getattr(solved, name), equal_nan=True
        ), name
    for name in (
        "capacity_binding",
        "price_cap_binding",
        "feasible",
        "mask",
        "counts",
        "unit_costs",
    ):
        assert (getattr(reference, name) == getattr(solved, name)).all(), name


class TestChunkedEqualsUnchunked:
    """Tentpole acceptance: ``equilibria_stacked_chunked`` is bitwise-equal
    to ``equilibria_stacked`` for every chunk size. Reference and chunked
    runs always use *fresh* stacks — the two entry points share a memo, so
    reusing one stack would make the comparison vacuous."""

    def test_50_ragged_stacks_across_all_chunk_sizes(self):
        """Property: 50 random ragged stacks (every third with an
        infeasible member) × chunk sizes
        {1, 3, 7, M, M + 13} — all bitwise-equal to the unchunked solve."""
        rng = np.random.default_rng(2024)
        for trial in range(50):
            markets = random_markets(
                int(rng.integers(2, 9)),
                root_seed=1000 + trial,
                max_vmus=7,
            )
            if trial % 3 == 0:
                markets.insert(
                    int(rng.integers(0, len(markets) + 1)),
                    infeasible_market(),
                )
            num_markets = len(markets)
            reference = MarketStack(markets).equilibria_stacked()
            for chunk_size in (1, 3, 7, num_markets, num_markets + 13):
                solved = MarketStack(markets).equilibria_stacked_chunked(
                    chunk_size=chunk_size
                )
                assert_stacks_bitwise_equal(reference, solved)

    def test_infeasible_markets_masked_across_chunk_boundaries(self):
        """Infeasible members at indices 1 and 4 with chunk_size=3: one
        masked row per chunk, masking identical to the unchunked solve."""
        markets = random_markets(6, root_seed=77)
        markets.insert(1, infeasible_market())
        markets.insert(4, infeasible_market())
        reference = MarketStack(markets).equilibria_stacked()
        solved = MarketStack(markets).equilibria_stacked_chunked(chunk_size=3)
        assert not solved.feasible[1] and not solved.feasible[4]
        assert solved.feasible.sum() == 6
        assert_stacks_bitwise_equal(reference, solved)
        with pytest.raises(InfeasibleMarketError, match="no profitable trade"):
            solved.equilibrium(4)

    def test_per_market_accessors_match_per_market_solves(self):
        markets = random_markets(8, root_seed=55)
        solved = MarketStack(markets).equilibria_stacked_chunked(chunk_size=3)
        assert_equilibria_match(solved, markets)

    def test_chunked_and_unchunked_share_the_memo(self):
        stack = MarketStack(random_markets(5, root_seed=13))
        chunked = stack.equilibria_stacked_chunked(chunk_size=2)
        assert stack.equilibria_stacked() is chunked
        assert stack.equilibria_stacked_chunked(chunk_size=1) is chunked

    def test_chunk_rows_clamp(self, monkeypatch):
        """The solve's own chunk size floor-divides the byte budget and
        never drops below one row; an explicit size must be positive."""
        from repro.core import marketstack
        from repro.errors import ConfigurationError

        per_market = marketstack.solve_scratch_bytes_per_market(6)
        assert marketstack._chunk_rows(6) == (
            marketstack.DEFAULT_CHUNK_BYTES // per_market
        )
        monkeypatch.setattr(marketstack, "DEFAULT_CHUNK_BYTES", 7 * per_market)
        assert marketstack._chunk_rows(6) == 7
        monkeypatch.setattr(marketstack, "DEFAULT_CHUNK_BYTES", 1)
        assert marketstack._chunk_rows(6) == 1
        stack = MarketStack(random_markets(3, root_seed=5))
        with pytest.raises(ConfigurationError, match="chunk_size"):
            stack.equilibria_stacked_chunked(chunk_size=0)

    def test_cold_and_live_solves_stream_in_chunk_rows(self, monkeypatch):
        """Both solves take their chunk size from ``_chunk_rows``: at a
        budget of 3 rows, 8 markets solve as chunks of 3, 3 and 2."""
        from repro.core import MutableMarketStack, marketstack

        markets = random_markets(8, root_seed=23)
        per_market = marketstack.solve_scratch_bytes_per_market(
            MarketStack(markets).max_vmus
        )
        monkeypatch.setattr(marketstack, "DEFAULT_CHUNK_BYTES", 3 * per_market)
        chunks = []
        solve_rows = marketstack.MarketStack._solve_rows

        def counted(self, sl):
            chunks.append(len(self._counts[sl]))
            return solve_rows(self, sl)

        monkeypatch.setattr(marketstack.MarketStack, "_solve_rows", counted)
        cold = MarketStack(markets).equilibria_stacked()
        live = MutableMarketStack(markets).equilibria_live()
        assert chunks == [3, 3, 2] * 2
        assert_stacks_bitwise_equal(cold, live)


class TestScalarAccessorCache:
    def test_equilibrium_returns_cached_object(self):
        solved = MarketStack(random_markets(4, root_seed=19)).equilibria_stacked()
        first = solved.equilibrium(2)
        assert solved.equilibrium(2) is first  # O(1) repeated access

    def test_cached_equilibrium_arrays_are_read_only(self):
        solved = MarketStack(random_markets(3, root_seed=23)).equilibria_stacked()
        equilibrium = solved.equilibrium(0)
        with pytest.raises(ValueError):
            equilibrium.demands[0] = 0.0
        with pytest.raises(ValueError):
            solved.prices[0] = 1.0  # stacked backing arrays frozen too


class TestVectorisedInternalsMatchLoops:
    """Satellite acceptance: the vectorised construction / totals /
    landscape paths equal their per-market loop references bitwise."""

    def test_construction_matches_per_market_fill_loop(self):
        markets = random_markets(20, root_seed=31, max_vmus=9)
        stack = MarketStack(markets)
        n_max = stack.max_vmus
        alphas = np.ones((len(markets), n_max))
        data = np.ones((len(markets), n_max))
        for m, market in enumerate(markets):
            alphas[m, : market.num_vmus] = market.immersion_coefs
            data[m, : market.num_vmus] = market.data_units
        assert (stack.immersion_coefs == alphas).all()
        assert (stack.data_units == data).all()
        assert (
            stack.counts == np.array([m.num_vmus for m in markets])
        ).all()
