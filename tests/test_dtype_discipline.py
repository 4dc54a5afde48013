"""Dtype discipline on the equilibrium hot path.

City-scale solves stream millions of elements per chunk; a silent upcast
(float32 input widening mid-pipeline), a silent *downcast*, or a hidden
non-contiguous view would change memory behaviour — and potentially bits —
without failing any numeric test. This suite walks every array the hot
path returns (``game/solvers`` and ``core/marketstack``, whose stacked
outcomes carry the ``core/utilities`` and ``channel/ofdma`` kernels'
results) and pins float64 dtype and C-contiguity end to end; float32
prices entering the stack come out float64.
"""

import numpy as np
import pytest

from repro.core import MarketStack
from repro.game.solvers import grid_then_golden_batch, uniform_price_grid

from test_core_equilibria_stacked import infeasible_market, random_markets


def assert_hot(array, *, dtype=np.float64):
    """The hot-path array contract: exact dtype, C-contiguous."""
    array = np.asarray(array)
    assert array.dtype == dtype, f"expected {dtype}, got {array.dtype}"
    assert array.flags["C_CONTIGUOUS"]


@pytest.fixture(scope="module")
def stack():
    markets = random_markets(7, root_seed=3, max_vmus=5)
    markets.insert(2, infeasible_market())
    return MarketStack(markets)


class TestSolverDtype:
    def test_uniform_price_grid(self):
        assert_hot(uniform_price_grid(5.0, 50.0, 16))
        assert_hot(uniform_price_grid(np.float32(5.0), np.float32(50.0), 16))

    def test_grid_then_golden_batch(self):
        peaks = np.array([3.0, 7.0], dtype=np.float32)

        def objective(x):
            x = np.asarray(x, dtype=np.float64)
            p = peaks[:, np.newaxis] if x.ndim == 2 else peaks
            return -((x - p) ** 2)

        lows = np.array([1, 1], dtype=np.int64)
        highs = np.array([10, 10], dtype=np.int64)
        best, values = grid_then_golden_batch(objective, lows, highs)
        assert_hot(best)
        assert_hot(values)


class TestMarketStackDtype:
    def test_stacked_parameter_matrices(self, stack):
        assert_hot(stack.immersion_coefs)
        assert_hot(stack.data_units)
        assert_hot(stack.spectral_efficiencies)
        assert_hot(stack.unit_costs)
        assert_hot(stack.max_prices)
        assert_hot(stack.capacities_natural)
        # int64 everywhere (the platform-default C long is int32 on some
        # targets, which would silently change payload hashes)
        assert_hot(stack.counts, dtype=np.int64)
        assert_hot(stack.mask, dtype=np.bool_)

    def test_candidate_matrix(self, stack):
        candidates, feasible = stack._candidate_rows(slice(None))
        assert_hot(candidates)
        assert_hot(feasible, dtype=np.bool_)

    def test_vector_outcome_fields(self, stack):
        outcome = stack.outcomes_stacked(
            np.linspace(10.0, 20.0, stack.num_markets)
        )
        for name in ("prices", "demands", "allocations", "msp_utilities",
                     "vmu_utilities"):
            assert_hot(getattr(outcome, name))
        assert_hot(outcome.capacity_binding, dtype=np.bool_)
        assert_hot(outcome.total_allocated)

    def test_grid_outcome_fields(self, stack):
        steps = (stack.max_prices - stack.unit_costs) / 15
        landscape = stack.outcomes_stacked(
            stack.unit_costs[:, None] + steps[:, None] * np.arange(16)
        )
        for name in ("prices", "demands", "allocations", "msp_utilities",
                     "vmu_utilities"):
            assert_hot(getattr(landscape, name))
        assert_hot(landscape.capacity_binding, dtype=np.bool_)

    def test_float32_price_input_solves_in_float64(self, stack):
        prices = np.linspace(10.0, 20.0, stack.num_markets, dtype=np.float32)
        outcome = stack.outcomes_stacked(prices)
        assert_hot(outcome.prices)
        assert_hot(outcome.demands)

    @pytest.mark.parametrize("chunked", [False, True])
    def test_equilibria_fields(self, chunked):
        markets = random_markets(6, root_seed=3, max_vmus=5)
        markets.insert(2, infeasible_market())
        stack = MarketStack(markets)
        solved = (
            stack.equilibria_stacked_chunked(chunk_size=2)
            if chunked
            else stack.equilibria_stacked()
        )
        for name in ("prices", "demands", "msp_utilities", "vmu_utilities",
                     "unit_costs"):
            assert_hot(getattr(solved, name))
        for name in ("capacity_binding", "price_cap_binding", "feasible",
                     "mask"):
            assert_hot(getattr(solved, name), dtype=np.bool_)
        assert_hot(solved.counts, dtype=np.int64)
        assert_hot(solved.total_bandwidths)
