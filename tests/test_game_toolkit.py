"""Game-toolkit tests: solvers, best-response dynamics, and the analysis
checks in ``tests/game_oracle.py``."""

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
from repro.game.best_response import (
    iterate_best_response,
    iterate_best_response_batch,
)
from repro.game.solvers import bisect_root, golden_section_maximize, grid_then_golden


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


class TestBisectRoot:
    def test_linear(self):
        assert bisect_root(lambda x: x - 2.5, 0.0, 10.0) == pytest.approx(2.5)

    def test_derivative_of_concave(self):
        # root of d/dx [ln(1+x) - 0.2x] -> 1/(1+x) = 0.2 -> x = 4.
        root = bisect_root(lambda x: 1.0 / (1.0 + x) - 0.2, 0.0, 100.0)
        assert root == pytest.approx(4.0, abs=1e-8)

    def test_endpoint_root(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change_rejected(self):
        with pytest.raises(GameError, match="no sign change"):
            bisect_root(lambda x: x + 10.0, 0.0, 1.0)


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


class TestBestResponseDynamics:
    def test_decoupled_converges_in_one_step(self):
        # BR independent of opponents: fixed point after one iteration.
        target = np.array([2.0, 5.0])
        result = iterate_best_response(lambda x: target, [0.0, 0.0])
        assert result.converged
        assert result.iterations <= 2
        np.testing.assert_allclose(result.strategies, target)

    def test_contraction_converges(self):
        # BR(x) = 0.5 x + 1 -> fixed point 2.
        result = iterate_best_response(
            lambda x: 0.5 * x + 1.0, [10.0], tolerance=1e-12
        )
        assert result.converged
        assert result.strategies[0] == pytest.approx(2.0, abs=1e-9)

    def test_damping_stabilises_oscillation(self):
        # BR(x) = -x oscillates undamped; damping 0.5 converges to 0.
        undamped = iterate_best_response(
            lambda x: -x, [1.0], damping=1.0, max_iterations=50
        )
        assert not undamped.converged
        damped = iterate_best_response(lambda x: -x, [1.0], damping=0.5)
        assert damped.converged
        assert damped.strategies[0] == pytest.approx(0.0, abs=1e-8)

    def test_zero_damping_rejected(self):
        with pytest.raises(GameError):
            iterate_best_response(lambda x: x, [1.0], damping=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GameError, match="shape"):
            iterate_best_response(lambda x: np.zeros(3), [1.0, 2.0])

    def test_residual_reported(self):
        result = iterate_best_response(lambda x: x * 0.9, [1.0], max_iterations=3)
        assert not result.converged
        assert result.residual > 0.0


class TestBatchBestResponseDynamics:
    def test_rows_match_scalar_iterator_bitwise(self):
        """Each stacked game's trajectory is the scalar iterator's bits:
        same contraction, same residuals, same stop round."""
        targets = np.array([[1.0, -2.0], [0.25, 0.75], [10.0, 10.0]])

        def batch_map(stack):
            return 0.5 * (stack + targets)

        batch = iterate_best_response_batch(
            batch_map, np.zeros((3, 2)), tolerance=1e-8
        )
        for row in range(3):
            scalar = iterate_best_response(
                lambda x, row=row: 0.5 * (x + targets[row]),
                [0.0, 0.0],
                tolerance=1e-8,
            )
            np.testing.assert_array_equal(batch.strategies[row], scalar.strategies)
            assert batch.iterations[row] == scalar.iterations
            assert bool(batch.converged[row]) == scalar.converged

    def test_converged_rows_freeze_while_others_run(self):
        """A fast row must stop moving the moment it converges even though
        slow rows keep iterating — no extra applications of the map."""
        rates = np.array([[0.01], [0.9]])
        calls = []

        def batch_map(stack):
            calls.append(stack.copy())
            return stack * rates

        result = iterate_best_response_batch(
            batch_map, np.array([[1.0], [1.0]]), tolerance=1e-6
        )
        assert bool(result.converged.all())
        assert result.iterations[0] < result.iterations[1]
        # After row 0 converged, its value never changed again.
        frozen_value = result.strategies[0, 0]
        for snapshot in calls[result.iterations[0] :]:
            assert snapshot[0, 0] == frozen_value

    def test_mask_excludes_padded_columns(self):
        """Ragged stacking: padded columns stay put and never count
        toward the residual."""
        mask = np.array([[True, True], [True, False]])

        def batch_map(stack):
            out = stack * 0.5
            out[1, 1] = 99.0  # response in a padded slot must be ignored
            return out

        result = iterate_best_response_batch(
            batch_map, np.ones((2, 2)), tolerance=1e-4, mask=mask
        )
        assert bool(result.converged.all())
        assert result.strategies[1, 1] == 1.0  # padding untouched

    def test_unconverged_rows_report_budget(self):
        result = iterate_best_response_batch(
            lambda stack: -stack, np.ones((1, 1)), max_iterations=7
        )
        assert not bool(result.converged[0])
        assert result.iterations[0] == 7

    def test_zero_width_games_converge_immediately(self):
        result = iterate_best_response_batch(
            lambda stack: stack, np.zeros((2, 0))
        )
        assert bool(result.converged.all())
        np.testing.assert_array_equal(result.residuals, [0.0, 0.0])

    def test_validation(self):
        with pytest.raises(GameError):
            iterate_best_response_batch(
                lambda s: s, np.zeros((2, 2)), damping=0.0
            )
        with pytest.raises(GameError):
            iterate_best_response_batch(lambda s: s, np.zeros(3))
        with pytest.raises(GameError):
            iterate_best_response_batch(
                lambda s: s, np.zeros((2, 2)), mask=np.ones((3, 2), dtype=bool)
            )
        with pytest.raises(GameError):
            iterate_best_response_batch(
                lambda s: np.zeros((2, 3)), np.zeros((2, 2))
            )

    def test_damped_batch_matches_scalar(self):
        batch = iterate_best_response_batch(
            lambda s: -s, np.ones((1, 1)), damping=0.5, tolerance=1e-8
        )
        scalar = iterate_best_response(
            lambda x: -x, [1.0], damping=0.5, tolerance=1e-8
        )
        np.testing.assert_array_equal(batch.strategies[0], scalar.strategies)
        assert batch.iterations[0] == scalar.iterations
