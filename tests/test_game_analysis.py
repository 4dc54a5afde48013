"""Coverage for the numerical game-analysis checks (Theorems 1–2) that
``tests/game_oracle.py`` holds for the market tests, and the follower
stage of a production market checked with them."""

import math

import pytest
from game_oracle import (
    is_concave_on,
    numerical_derivative,
    numerical_second_derivative,
    verify_best_response,
    verify_no_profitable_deviation,
    vmu_utility,
)

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.errors import GameError


class TestDerivatives:
    def test_first_derivative_quadratic(self):
        assert numerical_derivative(lambda x: x * x, 3.0) == pytest.approx(6.0)

    def test_first_derivative_step_size(self):
        assert numerical_derivative(
            math.exp, 0.0, h=1e-5
        ) == pytest.approx(1.0, rel=1e-6)

    def test_second_derivative_quadratic(self):
        assert numerical_second_derivative(
            lambda x: 2.0 * x * x, 1.0
        ) == pytest.approx(4.0, rel=1e-4)

    def test_second_derivative_linear_is_zero(self):
        assert numerical_second_derivative(
            lambda x: 3.0 * x + 1.0, 5.0
        ) == pytest.approx(0.0, abs=1e-4)


class TestConcavity:
    def test_concave_function(self):
        assert is_concave_on(lambda x: -(x - 1.0) ** 2, 0.0, 2.0)

    def test_convex_function_rejected(self):
        assert not is_concave_on(lambda x: x * x, -1.0, 1.0)

    def test_linear_is_concave(self):
        assert is_concave_on(lambda x: 2.0 * x, 0.0, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(GameError):
            is_concave_on(lambda x: x, 0.0, 1.0, samples=1)
        with pytest.raises(GameError):
            is_concave_on(lambda x: x, 1.0, 1.0)


class TestBestResponseVerification:
    def test_true_argmax_accepted(self):
        assert verify_best_response(lambda x: -(x - 0.5) ** 2, 0.5, 0.0, 1.0)

    def test_wrong_argmax_rejected(self):
        assert not verify_best_response(lambda x: -(x - 0.5) ** 2, 0.9, 0.0, 1.0)

    def test_tolerance_guards_float_noise(self):
        # A point within tolerance of the max passes.
        assert verify_best_response(
            lambda x: -(x - 0.5) ** 2, 0.5 + 1e-8, 0.0, 1.0, tolerance=1e-6
        )


class TestNashVerification:
    def test_coordination_equilibrium(self):
        # Both want to match: (0, 0) is a Nash equilibrium.
        utilities = [
            lambda x: -((x - 0.0) ** 2),
            lambda x: -((x - 0.0) ** 2),
        ]
        assert verify_no_profitable_deviation(
            utilities, [0.0, 0.0], [(-1.0, 1.0), (-1.0, 1.0)]
        )

    def test_profitable_deviation_rejected(self):
        utilities = [lambda x: x, lambda x: x]  # always deviate upward
        assert not verify_no_profitable_deviation(
            utilities, [0.0, 0.0], [(0.0, 1.0), (0.0, 1.0)]
        )

    def test_misaligned_inputs(self):
        with pytest.raises(GameError):
            verify_no_profitable_deviation(
                [lambda x: x], [0.0, 1.0], [(0.0, 1.0)]
            )


class TestFollowerStage:
    """Theorem 1 on the production follower utility and best response."""

    def test_vmu_utility_strictly_concave_in_bandwidth(self):
        # d²U/db² = −α·SE² / (D + b·SE)².
        se = StackelbergMarket(paper_fig2_population()).spectral_efficiency
        for b in (0.05, 0.2, 1.0):
            numeric = numerical_second_derivative(
                lambda x: vmu_utility(5.0, 2.0, x, 10.0, se), b
            )
            analytic = -5.0 * se**2 / (2.0 + b * se) ** 2
            assert numeric == pytest.approx(analytic, rel=1e-4)

    def test_follower_best_responses_are_nash(self):
        market = StackelbergMarket(paper_fig2_population())
        se = market.spectral_efficiency
        price = 12.0
        demands = market.round_outcome(price).demands
        utilities = [
            lambda b, a=a, d=d: vmu_utility(a, d, b, price, se)
            for a, d in zip(market.immersion_coefs, market.data_units)
        ]
        bounds = [(0.0, 2.0 * float(demands.max()))] * len(utilities)
        assert verify_no_profitable_deviation(utilities, list(demands), bounds)
        shifted = [float(demands[0]) * 1.5, float(demands[1])]
        assert not verify_no_profitable_deviation(utilities, shifted, bounds)
