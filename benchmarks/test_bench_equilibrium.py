"""Stacked equilibrium solve: speedup evidence.

Times ``MarketStack.equilibria_stacked`` against the per-market
``equilibrium()`` loop over a heterogeneous grid (ragged populations,
mixed capacity enforcement) for M ∈ {8, 50} and records the evidence in
``benchmarks/results/equilibrium_speedup.txt``.

The comparison is exact by construction (the per-market call is the
``M = 1`` case of the stacked solve — see
``tests/test_core_equilibria_stacked.py``), so the timing difference is
per-market overhead removed: the looped path builds a one-market stack
and solves its Theorem-2 candidates *per market* (row by row in Python
floats below 8 VMUs, through the numpy form at 8), while the stacked
path evaluates every market's candidates once over ``(M, ·)`` matrices.

Both paths memoise solved equilibria on their (immutable) stacks, so each
timed run rebuilds its markets from shared populations — the measurement
is the solve, never the memo.
"""

import time

import numpy as np
import pytest

from repro.core import MarketStack
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import sample_population
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

MARKET_COUNTS = (8, 50)
REPEATS = 5


def market_specs(count):
    """Population + config pairs for a heterogeneous market grid."""
    rng = np.random.default_rng(1234)
    specs = []
    for _ in range(count):
        population = sample_population(
            int(rng.integers(1, 9)), seed=int(rng.integers(0, 2**31))
        )
        config = MarketConfig(
            unit_cost=float(rng.uniform(3.0, 9.0)),
            max_bandwidth=float(rng.uniform(20.0, 60.0)),
            enforce_capacity=bool(rng.integers(0, 2)),
        )
        specs.append((population, config))
    return specs


def fresh_markets(specs):
    """New market objects (empty solve memos) over the shared populations."""
    return [
        StackelbergMarket(population, config=config)
        for population, config in specs
    ]


def best_of(fn):
    """Minimum wall-clock of ``REPEATS`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def equilibrium_table():
    table = Table(
        headers=("markets", "path", "best_millis", "speedup"),
        title="Equilibrium solve — stacked vs per-market loop",
    )
    speedups = {}
    for count in MARKET_COUNTS:
        specs = market_specs(count)

        def looped():
            for market in fresh_markets(specs):
                market.equilibrium()

        def stacked():
            MarketStack(fresh_markets(specs)).equilibria_stacked()

        looped_s = best_of(looped)
        stacked_s = best_of(stacked)
        speedups[count] = looped_s / stacked_s
        table.add_row(count, "per-market loop", looped_s * 1e3, 1.0)
        table.add_row(count, "stacked (one pass)", stacked_s * 1e3, speedups[count])
    return table, speedups


def test_equilibrium_speedup(record_table):
    table, speedups = equilibrium_table()
    record_table("equilibrium_speedup", table)

    # Acceptance floor: the 50-market stacked solve must clearly beat 50
    # per-market solves. The loop baseline is no pushover: every M = 1
    # solve of fewer than 8 VMUs takes the row-by-row form
    # (_solve_rows_scalar) inside the one chunked solve (median 5.0x over
    # five runs on a 2-core x86 box). The floor sits well below that: it
    # still proves the batch removes per-market overhead while leaving
    # headroom for shared noisy runners.
    assert speedups[50] >= 2.0
