"""Game-toolkit tests: solvers and the analysis checks in
``tests/game_oracle.py``."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from game_oracle import (
    is_concave_on,
    numerical_derivative,
    numerical_second_derivative,
    verify_best_response,
    verify_no_profitable_deviation,
)

from repro.errors import GameError
from repro.game.solvers import golden_section_maximize, grid_then_golden


class TestGoldenSection:
    def test_quadratic(self):
        argmax, value = golden_section_maximize(lambda x: -(x - 3.0) ** 2, 0.0, 10.0)
        assert argmax == pytest.approx(3.0, abs=1e-6)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_boundary_maximum(self):
        argmax, _ = golden_section_maximize(lambda x: x, 0.0, 1.0)
        assert argmax == pytest.approx(1.0, abs=1e-6)

    def test_log_utility(self):
        # max of ln(1+x) - 0.5x at x = 1.
        argmax, _ = golden_section_maximize(
            lambda x: math.log1p(x) - 0.5 * x, 0.0, 10.0
        )
        assert argmax == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_bracket(self):
        argmax, value = golden_section_maximize(lambda x: -x * x, 2.0, 2.0)
        assert argmax == 2.0

    def test_inverted_bracket_rejected(self):
        with pytest.raises(GameError):
            golden_section_maximize(lambda x: x, 1.0, 0.0)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_quadratic_family(self, center):
        argmax, _ = golden_section_maximize(
            lambda x: -((x - center) ** 2), -10.0, 10.0
        )
        assert argmax == pytest.approx(center, abs=1e-5)


class TestGridThenGolden:
    def test_smooth(self):
        argmax, _ = grid_then_golden(lambda x: -(x - 7.0) ** 2, 0.0, 10.0)
        assert argmax == pytest.approx(7.0, abs=1e-6)

    def test_kinked_objective(self):
        # max(-|x-3|, -2|x-8|+1): global max at x=8 (value 1) with a kink.
        def objective(x):
            return max(-abs(x - 3.0), -2.0 * abs(x - 8.0) + 1.0)

        argmax, value = grid_then_golden(objective, 0.0, 10.0, grid_points=512)
        assert argmax == pytest.approx(8.0, abs=1e-3)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_flat_interval(self):
        argmax, value = grid_then_golden(lambda x: 1.0, 0.0, 1.0)
        assert value == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(GameError):
            grid_then_golden(lambda x: x, 0.0, 1.0, grid_points=2)


class TestAutoVectorScan:
    """The coarse scan probes the scalar objective with the whole grid and
    must stay bitwise-identical to the per-point loop."""

    @staticmethod
    def _scalar_only(objective):
        """Wrap a ufunc-style objective so arrays are rejected — forces
        the historical per-point scan."""

        def wrapped(p):
            return objective(float(p))

        return wrapped

    def test_ufunc_objective_matches_scalar_loop_bitwise(self):
        def objective(p):
            return np.sin(p) - 0.1 * (p - 4.0) ** 2

        vector_result = grid_then_golden(objective, 0.0, 10.0, grid_points=97)
        scalar_result = grid_then_golden(
            self._scalar_only(objective), 0.0, 10.0, grid_points=97
        )
        assert vector_result == scalar_result

    def test_tie_break_picks_first_maximum(self):
        # Symmetric two-peak objective: several grid points share the max.
        def objective(p):
            return -np.abs(np.abs(p) - 2.0)

        vector_result = grid_then_golden(objective, -4.0, 4.0, grid_points=17)
        scalar_result = grid_then_golden(
            self._scalar_only(objective), -4.0, 4.0, grid_points=17
        )
        assert vector_result == scalar_result

    def test_reducing_callable_falls_back(self):
        # Accepts an array but returns a scalar — the probe must reject
        # the wrong-shape result and run the per-point loop.
        def objective(p):
            return float(np.sum(-((p - 3.0) ** 2)))

        argmax, _ = grid_then_golden(objective, 0.0, 10.0)
        assert argmax == pytest.approx(3.0, abs=1e-6)

    def test_scalar_only_callable_falls_back(self):
        argmax, _ = grid_then_golden(
            lambda p: -abs(float(p) - 6.0), 0.0, 10.0
        )
        assert argmax == pytest.approx(6.0, abs=1e-6)


class TestAnalysis:
    def test_numerical_derivative(self):
        assert numerical_derivative(lambda x: x**2, 3.0) == pytest.approx(6.0, abs=1e-4)

    def test_numerical_second_derivative(self):
        assert numerical_second_derivative(lambda x: x**2, 1.0) == pytest.approx(
            2.0, abs=1e-3
        )

    def test_concave_detected(self):
        assert is_concave_on(lambda x: -(x**2), -5.0, 5.0)
        assert is_concave_on(math.log1p, 0.0, 10.0)

    def test_convex_rejected(self):
        assert not is_concave_on(lambda x: x**2, -5.0, 5.0)

    def test_verify_best_response_true(self):
        assert verify_best_response(lambda x: -(x - 2.0) ** 2, 2.0, 0.0, 5.0)

    def test_verify_best_response_false(self):
        assert not verify_best_response(lambda x: -(x - 2.0) ** 2, 0.5, 0.0, 5.0)

    def test_verify_no_profitable_deviation(self):
        # 2-player game with decoupled quadratic utilities.
        utilities = [lambda x: -(x - 1.0) ** 2, lambda x: -(x - 3.0) ** 2]
        assert verify_no_profitable_deviation(
            utilities, [1.0, 3.0], [(0.0, 5.0), (0.0, 5.0)]
        )
        assert not verify_no_profitable_deviation(
            utilities, [1.0, 0.0], [(0.0, 5.0), (0.0, 5.0)]
        )

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(GameError):
            verify_no_profitable_deviation([lambda x: x], [1.0, 2.0], [(0, 1)])
