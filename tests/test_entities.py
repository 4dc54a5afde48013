"""Entity tests: VMU profiles and populations, and the MSP and RSU rules
that production keeps in the market, the env and the city grid."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.core.utilities import _msp_utilities_rows
from repro.entities.vmu import (
    VmuProfile,
    paper_fig2_population,
    sample_population,
    uniform_population,
)
from repro.env.vector import VectorMigrationEnv
from repro.errors import ConfigurationError
from repro.mobility.citygrid import CityGridSpec, city_markets


class TestEdgeServerAndRsu:
    """An RSU's coverage disc, as ``city_markets`` applies it."""

    def test_rsu_coverage(self):
        # The disc is closed: a neighbour exactly one radius away is covered,
        # so its crossings are soft handovers at half the migration rate.
        spec = CityGridSpec(
            num_markets=4, rows=2, cols=2, block_m=100.0, coverage_radius_m=100.0
        )
        short = dataclasses.replace(
            spec, coverage_radius_m=math.nextafter(100.0, 0.0)
        )
        for covered, uncovered in zip(city_markets(spec), city_markets(short)):
            assert covered.config.max_bandwidth == (
                0.5 * uncovered.config.max_bandwidth
            )


class TestMsp:
    """The MSP's pricing rules: the ``[C, p_max]`` interval of
    ``MarketConfig``, the Eq. (4) kernel ``_msp_utilities_rows`` and the
    env's clamp."""

    def test_ledger_accounting(self):
        # Eq. (4): revenue 25·3 minus cost 5·3, from the demand total 3.
        single = _msp_utilities_rows(np.array([25.0]), np.array([5.0]), np.array([3.0]))
        assert single[0] == pytest.approx(60.0)
        grid = _msp_utilities_rows(
            np.array([[25.0, 30.0]]), np.array([5.0]), np.array([[3.0, 2.0]])
        )
        np.testing.assert_allclose(grid, [[60.0, 50.0]])

    def test_price_validation(self):
        market = StackelbergMarket(paper_fig2_population())
        for price in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                market.round_outcome(price)

    def test_clamp_price(self):
        # Each env clamps the posted price to its own market's [C, p_max].
        base = StackelbergMarket(paper_fig2_population())
        env = VectorMigrationEnv.from_markets(
            [base, base.with_unit_cost(9.0)], seed=0, rounds_per_episode=3
        )
        env.reset()
        for action, expected in (
            (1.0, [5.0, 9.0]),
            (99.0, [50.0, 50.0]),
            (20.0, [20.0, 20.0]),
        ):
            _, _, _, infos = env.step(np.full(2, action))
            assert infos["price"].tolist() == expected

    def test_cost_above_cap_rejected(self):
        with pytest.raises(ValueError):
            MarketConfig(unit_cost=60.0, max_price=50.0)
        with pytest.raises(ValueError):
            StackelbergMarket(paper_fig2_population()).with_unit_cost(60.0)


class TestPopulations:
    def test_paper_fig2_population(self):
        vmus = paper_fig2_population()
        assert [v.data_size_mb for v in vmus] == [200.0, 100.0]
        assert [v.immersion_coef for v in vmus] == [5.0, 5.0]

    def test_data_units_conversion(self):
        assert paper_fig2_population()[0].data_units == 2.0

    def test_uniform_population(self):
        vmus = uniform_population(4)
        assert len(vmus) == 4
        assert all(v.data_size_mb == 100.0 for v in vmus)
        assert len({v.vmu_id for v in vmus}) == 4

    def test_sample_population_ranges(self):
        vmus = sample_population(50, seed=0)
        assert all(100.0 <= v.data_size_mb <= 300.0 for v in vmus)
        assert all(5.0 <= v.immersion_coef <= 20.0 for v in vmus)

    def test_sample_population_deterministic(self):
        a = sample_population(5, seed=3)
        b = sample_population(5, seed=3)
        assert [(v.data_size_mb, v.immersion_coef) for v in a] == [
            (v.data_size_mb, v.immersion_coef) for v in b
        ]

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            sample_population(0)
        with pytest.raises(ValueError):
            uniform_population(0)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            VmuProfile("x", data_size_mb=0.0, immersion_coef=5.0)
        with pytest.raises(ConfigurationError):
            VmuProfile("x", data_size_mb=100.0, immersion_coef=-1.0)


def scalar_uniform_population(count, rng, data_range_mb, immersion_range):
    """The reference draw: two scalar ``rng.uniform`` calls per VMU."""
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=float(rng.uniform(*data_range_mb)),
            immersion_coef=float(rng.uniform(*immersion_range)),
        )
        for i in range(count)
    ]


class TestOneDrawPopulation:
    RANGES = [
        ((100.0, 300.0), (5.0, 20.0)),
        ((1, 2), (7.25, 7.25)),
    ]

    @pytest.mark.parametrize("data_range_mb, immersion_range", RANGES)
    def test_bitwise_equal_to_scalar_uniform_draws(
        self, data_range_mb, immersion_range
    ):
        for seed in range(1000):
            count = 1 + seed % 12
            got_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = sample_population(
                count, seed=got_rng, data_range_mb=data_range_mb,
                immersion_range=immersion_range,
            )
            ref = scalar_uniform_population(
                count, ref_rng, data_range_mb, immersion_range
            )
            assert [v.vmu_id for v in got] == [v.vmu_id for v in ref]
            assert [
                (v.data_size_mb.hex(), v.immersion_coef.hex()) for v in got
            ] == [(v.data_size_mb.hex(), v.immersion_coef.hex()) for v in ref]
            # Shared streams (e.g. a city market's later draws) continue
            # exactly where the scalar calls would have left them.
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert got_rng.poisson(400.0) == ref_rng.poisson(400.0)
            assert got_rng.uniform(0.6, 1.0) == ref_rng.uniform(0.6, 1.0)

    @pytest.mark.parametrize(
        "data_range_mb, immersion_range",
        [
            ((100.0, math.inf), (5.0, 20.0)),
            ((math.nan, 300.0), (5.0, 20.0)),
            ((100.0, 300.0), (-math.inf, math.inf)),
            ((100.0, 300.0), (5.0, math.nan)),
        ],
    )
    def test_non_finite_range_overflows_like_uniform(
        self, data_range_mb, immersion_range
    ):
        with pytest.raises(OverflowError):
            scalar_uniform_population(
                1, np.random.default_rng(0), data_range_mb, immersion_range
            )
        with pytest.raises(OverflowError):
            sample_population(
                1, seed=0, data_range_mb=data_range_mb,
                immersion_range=immersion_range,
            )

    @pytest.mark.parametrize("count", [0, -3])
    def test_bad_counts_raise_configuration_errors(self, count):
        with pytest.raises(ConfigurationError, match="count"):
            sample_population(count, seed=0)
        with pytest.raises(ConfigurationError, match="count"):
            uniform_population(count)

    @pytest.mark.parametrize(
        "data_range_mb, immersion_range",
        [((300.0, 100.0), (5.0, 20.0)), ((100.0, 300.0), (20.0, 5.0))],
    )
    def test_inverted_range_raises_configuration_error(
        self, data_range_mb, immersion_range
    ):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="low <= high"):
            sample_population(
                2, seed=rng, data_range_mb=data_range_mb,
                immersion_range=immersion_range,
            )
        # Checked before the draw: a shared stream is left untouched.
        assert rng.bit_generator.state == state
