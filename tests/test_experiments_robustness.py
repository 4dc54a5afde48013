"""Robustness-sweep tests (distance, fading, population draws)."""

import pytest

from repro.channel.fading import LogNormalShadowing
from repro.experiments import run_experiment


def distance_sweep(**params):
    return run_experiment("distance_sweep", params)


def fading_sweep(**params):
    return run_experiment("fading_sweep", params)


def population_sweep(**params):
    return run_experiment("population_sweep", params)


class TestDistanceSweep:
    def test_se_and_price_fall_with_distance(self):
        result = distance_sweep(distances_m=(250.0, 500.0, 1000.0, 2000.0))
        se = result.spectral_efficiencies
        prices = result.prices
        assert all(a > b for a, b in zip(se, se[1:]))
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_paper_distance_reproduces_fig3_anchor(self):
        result = distance_sweep(distances_m=(500.0,))
        assert result.prices[0] == pytest.approx(25.34, abs=0.01)
        assert result.msp_utilities[0] == pytest.approx(6.444, abs=0.01)

    def test_price_scales_with_sqrt_se(self):
        # p* = sqrt(C SE Σα/ΣD): price ratio equals sqrt(SE ratio).
        result = distance_sweep(distances_m=(500.0, 2000.0))
        se_ratio = (
            result.spectral_efficiencies[1] / result.spectral_efficiencies[0]
        )
        price_ratio = result.prices[1] / result.prices[0]
        assert price_ratio == pytest.approx(se_ratio**0.5, rel=1e-6)

    def test_table_renders(self):
        result = distance_sweep(distances_m=(500.0, 1000.0))
        assert "RSU separation" in str(result.table())


class TestFadingSweep:
    def test_summary_brackets_nominal(self):
        result = fading_sweep(draws=40, seed=0)
        # The no-fading equilibrium price (25.34) should lie inside the
        # spread of faded outcomes.
        assert min(result.prices) < 25.34 < max(result.prices)

    def test_draw_count(self):
        result = fading_sweep(draws=10, seed=0)
        assert len(result.prices) == 10
        assert result.price_stats.count == 10

    def test_custom_fading_model(self):
        result = fading_sweep(
            fading=LogNormalShadowing(sigma_db=4.0), draws=10, seed=0
        )
        assert result.utility_stats.mean > 0.0

    def test_invalid_draws(self):
        with pytest.raises(ValueError):
            fading_sweep(draws=1)

    def test_table_renders(self):
        result = fading_sweep(draws=5, seed=0)
        assert "fading" in str(result.table())


class TestPopulationSweep:
    def test_statistics_positive(self):
        result = population_sweep(num_vmus=3, draws=8, seed=0)
        assert result.utility_stats.mean > 0.0
        assert len(result.per_draw) == 8

    def test_deterministic(self):
        a = population_sweep(num_vmus=3, draws=5, seed=9)
        b = population_sweep(num_vmus=3, draws=5, seed=9)
        assert a.per_draw == b.per_draw

    def test_invalid_draws(self):
        with pytest.raises(ValueError):
            population_sweep(draws=1)

    def test_table_renders(self):
        result = population_sweep(num_vmus=2, draws=4, seed=0)
        assert "random populations" in str(result.table())
