"""Memory smoke: chunked city-scale solve stays inside its byte budget.

Builds a 1024-market RSU grid and solves it in chunks of as many rows as
a 4 MiB budget holds by the solve's own estimate,
``solve_scratch_bytes_per_market``. ``tracemalloc`` (which sees numpy's
allocations) must report a traced peak within the budget during the
solve: each chunk runs one evaluation over its distinct Theorem-2
candidates and streams, so the peak is ~0.68 MB here, while any
regression that materialises full-stack
``(M, grid, N)`` temporaries (~12.6 MB at this size) blows straight
through the 4 MiB assertion. Run by the dedicated CI memory-smoke step,
excluded from the main tier-1 step.
"""

import tracemalloc

from repro.core import MarketStack
from repro.core.marketstack import solve_scratch_bytes_per_market
from repro.mobility.citygrid import CityGridSpec, city_columns

NUM_MARKETS = 1024
CHUNK_BYTES = 4 * 1024 * 1024


def test_chunked_solve_peak_memory_within_budget():
    stack = MarketStack.from_columns(
        city_columns(CityGridSpec.for_markets(NUM_MARKETS, seed=7))
    )
    chunk = CHUNK_BYTES // solve_scratch_bytes_per_market(stack.max_vmus)
    assert 1 <= chunk < NUM_MARKETS, "budget must force real chunking"

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        solved = stack.equilibria_stacked_chunked(chunk_size=chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert int(solved.feasible.sum()) > 0
    assert peak <= CHUNK_BYTES, (
        f"solve traced peak {peak / 1e6:.1f} MB exceeds the "
        f"{CHUNK_BYTES / 1e6:.1f} MB chunk budget"
    )
