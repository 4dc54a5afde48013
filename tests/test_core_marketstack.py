"""MarketStack tests: the stacked solve must equal per-market scalar solves.

The acceptance criterion of the market-stack axis: solving ``M`` different
markets at ``M`` different prices (or ``M`` whole price grids) in one
stacked pass reproduces the per-market solves **bitwise** — including
ragged populations, which the stack pads and masks.
"""

import dataclasses

import numpy as np
import pytest
from game_oracle import scalar_round
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.link import paper_link
from repro.core import MarketColumns, MarketStack, MutableMarketStack
from repro.core.marketstack import _MARKET_COLUMNS, _POPULATION_COLUMNS
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import (
    paper_fig2_population,
    sample_population,
    uniform_population,
)
from repro.errors import ConfigurationError
from repro.mobility.citygrid import CityGridSpec, city_columns


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


def random_prices(markets, rng):
    return np.array(
        [
            float(rng.uniform(m.config.unit_cost, m.config.max_price))
            for m in markets
        ]
    )


class TestStackedEqualsScalar:
    def test_50_random_ragged_markets_match_scalar_solves_bitwise(self):
        """Property: across ~50 random heterogeneous markets (ragged N,
        mixed capacity enforcement) the stacked solve equals per-market
        scalar round outcomes bitwise."""
        markets = random_markets(50, root_seed=7)
        stack = MarketStack(markets)
        assert stack.num_markets == 50
        rng = np.random.default_rng(123)
        for _ in range(4):
            prices = random_prices(markets, rng)
            stacked = stack.outcomes_stacked(prices)
            for m, market in enumerate(markets):
                reference = market.round_outcome(float(prices[m]))
                row = stacked.row(m)
                assert row.price == reference.price
                assert (row.demands == reference.demands).all()
                assert (row.allocations == reference.allocations).all()
                assert (row.vmu_utilities == reference.vmu_utilities).all()
                assert row.msp_utility == reference.msp_utility
                assert row.capacity_binding == reference.capacity_binding

    def test_price_grid_form_matches_per_market_batches_bitwise(self):
        markets = random_markets(12, root_seed=3)
        stack = MarketStack(markets)
        grids = np.stack(
            [
                np.linspace(m.config.unit_cost, m.config.max_price, 33)
                for m in markets
            ]
        )
        stacked = stack.outcomes_stacked(grids)
        assert stacked.has_price_grid
        for m, market in enumerate(markets):
            reference = market.outcomes_batch(grids[m])
            rows = stacked.market_rows(m)
            assert (rows.prices == reference.prices).all()
            assert (rows.demands == reference.demands).all()
            assert (rows.allocations == reference.allocations).all()
            assert (rows.msp_utilities == reference.msp_utilities).all()
            assert (rows.vmu_utilities == reference.vmu_utilities).all()
            assert (rows.capacity_binding == reference.capacity_binding).all()

    @pytest.mark.parametrize("grid", [False, True], ids=["(M,)", "(M,R)"])
    def test_stack_matches_the_oracle_scalar_chain_bitwise(self, grid):
        """The stacked kernels against the independent scalar chain of
        ``game_oracle`` (Eq. 8, rationing, Eqs. 4 and 2), market by market
        and price by price, on a ragged stack whose rows cover capacity
        enforced and not, and enforced capacity binding and slack."""
        markets = random_markets(40, root_seed=11)
        stack = MarketStack(markets)
        rng = np.random.default_rng(5)
        prices = np.stack([random_prices(markets, rng) for _ in range(6)], axis=1)
        stacked = stack.outcomes_stacked(prices if grid else prices[:, 0])
        regimes = set()
        for m, market in enumerate(markets):
            rows = stacked.market_rows(m) if grid else None
            for r in range(prices.shape[1] if grid else 1):
                got = rows.row(r) if grid else stacked.row(m)
                want = scalar_round(market, float(prices[m, r]))
                assert got.price == want.price
                assert got.demands.tobytes() == want.demands.tobytes()
                assert got.allocations.tobytes() == want.allocations.tobytes()
                assert got.msp_utility == want.msp_utility
                assert got.vmu_utilities.tobytes() == want.vmu_utilities.tobytes()
                assert got.capacity_binding == want.capacity_binding
                regimes.add(
                    (market.config.enforce_capacity, want.capacity_binding)
                )
        assert len({len(m.vmus) for m in markets}) > 1
        assert regimes == {(False, False), (True, False), (True, True)}

    def test_single_market_stack_is_outcomes_batch(self):
        """M = 1 broadcast case: the stack reproduces the market's own
        price-batch evaluation (they share one code path)."""
        market = StackelbergMarket(paper_fig2_population())
        stack = MarketStack([market])
        grid = np.linspace(5.0, 50.0, 17)
        stacked = stack.outcomes_stacked(grid[np.newaxis, :])
        reference = market.outcomes_batch(grid)
        assert (stacked.market_rows(0).msp_utilities == reference.msp_utilities).all()
        assert (stacked.market_rows(0).allocations == reference.allocations).all()

    def test_padding_never_leaks_into_outcomes(self):
        """Padded population slots stay exactly zero everywhere."""
        markets = [
            StackelbergMarket(uniform_population(1)),
            StackelbergMarket(uniform_population(6)),
        ]
        stack = MarketStack(markets)
        stacked = stack.outcomes_stacked(np.array([20.0, 20.0]))
        assert stack.max_vmus == 6
        assert (stacked.counts == [1, 6]).all()
        padded = ~stacked.mask
        assert (stacked.demands[padded] == 0.0).all()
        assert (stacked.allocations[padded] == 0.0).all()
        assert (stacked.vmu_utilities[padded] == 0.0).all()


class TestMarketStackApi:
    def test_parameter_arrays_and_accessors(self):
        markets = random_markets(5, root_seed=1)
        stack = MarketStack(markets)
        assert len(stack) == 5
        assert stack.market(2) is markets[2]
        assert stack.markets == tuple(markets)
        assert stack.immersion_coefs.shape == (5, stack.max_vmus)
        assert stack.data_units.shape == (5, stack.max_vmus)
        assert stack.unit_costs.shape == (5,)
        assert stack.max_prices.shape == (5,)
        assert stack.capacities_natural.shape == (5,)
        assert stack.spectral_efficiencies.shape == (5,)
        assert (stack.mask.sum(axis=1) == stack.counts).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MarketStack([])
        stack = MarketStack(random_markets(3, root_seed=4))
        with pytest.raises(ConfigurationError):
            stack.outcomes_stacked(np.array([20.0, 20.0]))  # wrong M
        with pytest.raises(ConfigurationError):
            stack.outcomes_stacked(np.array([20.0, -1.0, 20.0]))
        with pytest.raises(ConfigurationError):
            stack.outcomes_stacked(np.array([20.0, np.nan, 20.0]))
        with pytest.raises(ConfigurationError):
            stack.outcomes_stacked(np.zeros((3, 2, 2)))
        # Finite and > 0, but α/p overflows to inf and the rationed
        # allocation to NaN: a typed error, not a NaN outcome.
        for tiny in (np.array([20.0, 1e-308, 20.0]), np.full((3, 2), 1e-308)):
            with (
                pytest.warns(RuntimeWarning),
                pytest.raises(ConfigurationError, match="non-finite demand"),
            ):
                stack.outcomes_stacked(tiny)

    @pytest.mark.parametrize("cls", [MarketStack, MutableMarketStack])
    def test_any_iterable_of_markets_stacks_alike(self, cls):
        """A list, a one-shot iterator, a generator and another stack all
        give the same members and the same solve."""
        markets = random_markets(4, root_seed=6)
        reference = MarketStack(markets).equilibria_stacked()
        for source in (
            iter(markets),
            (m for m in markets),
            MarketStack(markets),
            MutableMarketStack(markets),
        ):
            stack = cls(source)
            assert stack.markets == tuple(markets)
            solved = stack.equilibria_stacked()
            assert solved.prices.tobytes() == reference.prices.tobytes()

    @pytest.mark.parametrize("cls", [MarketStack, MutableMarketStack])
    def test_a_non_market_entry_is_named_by_its_index(self, cls):
        markets = random_markets(3, root_seed=7)
        with pytest.raises(ConfigurationError, match="market 0 "):
            cls([1])
        with pytest.raises(ConfigurationError, match="market 2 .* str"):
            cls(iter([*markets[:2], "market", 1]))
        with pytest.raises(ConfigurationError, match="at least one market"):
            cls(iter([]))

    def test_row_and_market_rows_guard_their_shapes(self):
        stack = MarketStack(random_markets(2, root_seed=5))
        vector = stack.outcomes_stacked(np.array([20.0, 21.0]))
        grid = stack.outcomes_stacked(np.full((2, 3), 20.0))
        with pytest.raises(ConfigurationError):
            vector.market_rows(0)
        with pytest.raises(ConfigurationError):
            grid.row(0)


# ---------------------------------------------------------------------- #
# column-built stacks
# ---------------------------------------------------------------------- #
FLOAT_COLUMNS = _POPULATION_COLUMNS + _MARKET_COLUMNS
LINK = paper_link()
moderate = st.floats(min_value=1e-2, max_value=1e3)


@st.composite
def valid_columns(draw):
    """Random valid columns whose SE column is the moved link's, so the
    members :meth:`MarketColumns.market` builds are exactly the stack's."""
    counts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    num_markets, num_vmus = len(counts), sum(counts)

    def vector(size, elements=moderate):
        return np.array(
            draw(st.lists(elements, min_size=size, max_size=size)),
            dtype=np.float64,
        )

    sizes_mb = vector(num_vmus)
    distances = vector(num_markets, st.floats(1.0, 2000.0))
    unit_costs = vector(num_markets, st.floats(0.1, 20.0))
    return MarketColumns(
        counts=np.array(counts, dtype=np.int64),
        immersion_coefs=vector(num_vmus),
        data_sizes_mb=sizes_mb,
        data_units=sizes_mb / 100.0,
        spectral_efficiencies=np.array(
            [LINK.budget.spectral_efficiency_at(d) for d in distances.tolist()]
        ),
        max_bandwidths=vector(num_markets),
        distances_m=distances,
        unit_costs=unit_costs,
        max_prices=unit_costs + vector(num_markets, st.floats(0.0, 100.0)),
        bandwidth_report_scales=vector(num_markets, st.floats(1.0, 100.0)),
        enforce_capacity=np.array(
            draw(st.lists(st.booleans(), min_size=num_markets,
                          max_size=num_markets))
        ),
        link=LINK,
    )


CORRUPTIONS = ("nan", "inf", "-inf", "zero", "negative", "cost_above_cap",
               "zero_count", "short_column", "no_markets")


def corrupt(columns, kind, column, position):
    """``columns`` with one defect of ``kind``."""
    if kind == "cost_above_cap":
        costs = columns.unit_costs.copy()
        costs[position % len(costs)] = columns.max_prices[position % len(costs)] * 1.5
        return dataclasses.replace(columns, unit_costs=costs)
    if kind == "zero_count":
        counts = columns.counts.copy()
        counts[position % len(counts)] = 0
        return dataclasses.replace(columns, counts=counts)
    if kind == "no_markets":
        empty = {name: np.empty(0) for name in FLOAT_COLUMNS}
        return dataclasses.replace(
            columns, counts=np.empty(0, dtype=np.int64),
            enforce_capacity=np.empty(0, dtype=bool), **empty,
        )
    values = getattr(columns, column).copy()
    if kind == "short_column":
        return dataclasses.replace(columns, **{column: values[:-1]})
    values[position % len(values)] = {
        "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zero": 0.0,
        "negative": -1.0,
    }[kind]
    return dataclasses.replace(columns, **{column: values})


class TestFromColumns:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(columns=valid_columns())
    def test_valid_columns_stack_like_their_markets(self, columns):
        """Differential: the column-built stack is bitwise the stack of
        the members the columns describe, and no feasible row of its
        equilibria carries NaN."""
        stack = MarketStack.from_columns(columns)
        reference = MarketStack(
            [columns.market(m) for m in range(len(columns))]
        )
        for name in ("counts", "mask", "immersion_coefs", "data_units",
                     "spectral_efficiencies", "unit_costs", "max_prices",
                     "capacities_natural", "_effective_caps"):
            assert getattr(stack, name).tobytes() == (
                getattr(reference, name).tobytes()
            ), name
        solved, expected = stack.equilibria_stacked(), reference.equilibria_stacked()
        for name in ("prices", "demands", "msp_utilities", "vmu_utilities",
                     "feasible", "capacity_binding", "price_cap_binding"):
            assert getattr(solved, name).tobytes() == (
                getattr(expected, name).tobytes()
            ), name
        rows = solved.feasible
        assert np.isfinite(solved.prices[rows]).all()
        assert np.isfinite(solved.msp_utilities[rows]).all()
        valid = solved.mask & rows[:, np.newaxis]
        assert np.isfinite(solved.demands[valid]).all()
        assert np.isfinite(solved.vmu_utilities[valid]).all()

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        columns=valid_columns(),
        kind=st.sampled_from(CORRUPTIONS),
        column=st.sampled_from(FLOAT_COLUMNS),
        position=st.integers(0, 64),
    )
    def test_every_defect_raises_configuration_error(
        self, columns, kind, column, position
    ):
        with pytest.raises(ConfigurationError):
            MarketStack.from_columns(corrupt(columns, kind, column, position))

    def test_defects_name_their_column(self):
        base = city_columns(CityGridSpec.for_markets(4, seed=1))
        for name in FLOAT_COLUMNS:
            with pytest.raises(ConfigurationError, match=name):
                MarketStack.from_columns(corrupt(base, "nan", name, 0))
        with pytest.raises(ConfigurationError, match="exceeds max_price"):
            MarketStack.from_columns(corrupt(base, "cost_above_cap", None, 0))
        with pytest.raises(ConfigurationError, match="counts"):
            MarketStack.from_columns(
                dataclasses.replace(base, counts=base.counts.astype(float))
            )
        with pytest.raises(ConfigurationError, match="enforce_capacity"):
            MarketStack.from_columns(
                dataclasses.replace(
                    base, enforce_capacity=base.enforce_capacity.astype(float)
                )
            )

    def test_members_are_built_lazily_and_cached(self):
        stack = MarketStack.from_columns(
            city_columns(CityGridSpec.for_markets(6, seed=3))
        )
        assert stack.num_markets == len(stack) == 6
        assert stack._members == {}
        last = stack.market(-1)
        assert stack.market(5) is last
        assert list(stack._members) == [5]
        assert stack.markets[5] is last
        assert len(stack.markets) == 6
        with pytest.raises(IndexError):
            stack.market(6)
