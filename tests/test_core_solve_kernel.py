"""The equilibrium solve's leader-utility kernel equals the validating chain.

Every candidate evaluation, coarse scan and golden probe of
``MarketStack.equilibria_stacked`` runs through one scratch kernel,
``_ChunkScratch.leader_utilities``. It re-implements the
best-response → proportional-rationing → leader-utility chain in place
(hoisted ``D/SE``, precomputed ragged grouping, guarded division), so it
is pinned here **bitwise** against the public validating path
``outcomes_stacked(p).msp_utilities``:

- ``(m,)`` probe prices and ``(m, R)`` price grids, including the
  Theorem-2 candidate matrix the solve evaluates;
- ragged stacks with ``N_max`` 7 and 11, on both sides of numpy's width-8
  pairwise-summation boundary where the kernel switches between the
  full-width row sum and the grouped per-population reduction;
- non-enforcing, capacity-binding and infeasible rows;
- row slices loaded one after another into one scratch, as the chunked
  solve streams them.
"""

import numpy as np
import pytest

from repro.core import MarketStack
from repro.core.marketstack import _ChunkScratch
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import sample_population

from test_core_equilibria_stacked import infeasible_market, random_markets


def kernel_stack(n_max, seed):
    """A ragged stack of width exactly ``n_max`` with every row kind."""
    markets = random_markets(10, root_seed=seed, max_vmus=n_max)
    # Full width, tiny capacity: Σ demand exceeds B_max at low prices.
    markets.append(
        StackelbergMarket(
            sample_population(n_max, seed=seed),
            config=MarketConfig(max_bandwidth=2.0, enforce_capacity=True),
        )
    )
    # One VMU, capacity ignored: the ragged short row.
    markets.append(
        StackelbergMarket(
            sample_population(1, seed=seed + 1),
            config=MarketConfig(max_bandwidth=2.0, enforce_capacity=False),
        )
    )
    markets.insert(4, infeasible_market())
    stack = MarketStack(markets)
    assert stack.max_vmus == n_max
    assert len(set(stack.counts.tolist())) > 1  # ragged
    return stack


def price_sets(stack, seed):
    """``(M,)`` and ``(M, R)`` prices inside each row's ``[C, p_max]``."""
    rng = np.random.default_rng(seed)
    low, high = stack.unit_costs, stack.max_prices
    vector = low + (high - low) * rng.uniform(size=low.shape)
    grid = low[:, None] + (high - low)[:, None] * np.sort(
        rng.uniform(size=(low.size, 37)), axis=1
    )
    grid[:, 0] = low  # cheapest price: capacity binds where it can
    candidates, _ = stack._candidate_rows(slice(None))
    return {"vector": vector, "grid": grid, "candidates": candidates}


@pytest.mark.parametrize("n_max", [7, 11])
@pytest.mark.parametrize("form", ["vector", "grid", "candidates"])
def test_kernel_matches_outcomes_stacked_bitwise(n_max, form):
    stack = kernel_stack(n_max, seed=100 + n_max)
    prices = price_sets(stack, seed=n_max)[form]
    reference = stack.outcomes_stacked(prices)
    scratch = _ChunkScratch(stack.num_markets, stack.max_vmus)
    scratch.load(stack, slice(None))
    values = scratch.leader_utilities(prices)
    assert values.shape == prices.shape
    assert np.array_equal(values, reference.msp_utilities)
    if form == "grid":
        # The set really covers every row kind.
        enforce = np.array([m.config.enforce_capacity for m in stack.markets])
        assert reference.capacity_binding.any()
        assert (~enforce).any()
        assert (reference.msp_utilities[4] == 0.0).all()  # infeasible row


@pytest.mark.parametrize("n_max", [7, 11])
def test_row_slices_streamed_through_one_scratch(n_max):
    """Chunks loaded one after another into a scratch sized for the widest
    chunk give each row range the full-stack bits, for both price forms."""
    stack = kernel_stack(n_max, seed=200 + n_max)
    prices = price_sets(stack, seed=3 * n_max)
    full = {
        form: stack.outcomes_stacked(p).msp_utilities
        for form, p in prices.items()
    }
    scratch = _ChunkScratch(5, stack.max_vmus)
    for start in range(0, stack.num_markets, 5):
        sl = slice(start, min(start + 5, stack.num_markets))
        scratch.load(stack, sl)
        for form, p in prices.items():
            assert np.array_equal(
                scratch.leader_utilities(p[sl]), full[form][sl]
            ), (form, sl)
