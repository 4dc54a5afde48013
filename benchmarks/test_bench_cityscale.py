"""City-scale chunked solve: markets/second and peak-RSS evidence.

Builds RSU-grid stacks via ``MarketStack.from_grid`` at M ∈ {64, 1000,
10000} and times ``equilibria_stacked_chunked`` under a 32 MiB scratch
budget, recording throughput (markets/second), the ``tracemalloc`` peak
around the solve (which sees numpy's allocations; construction is
excluded from this peak only), and the process ``ru_maxrss`` high-water
mark (report-only: it never shrinks, so only the budget-bounded traced
peak is asserted). The construction time of ``from_grid`` is reported as
``build_s`` (report-only, no floor): ``markets_per_s`` and ``solve_s``
time the solve alone. Results land in ``benchmarks/results/cityscale.txt``.

Acceptance (ISSUE 6): the M = 10000 solve completes, its traced peak
stays inside the chunk budget, and throughput clears 50 markets/second.
"""

import resource
import time
import tracemalloc

import pytest

from repro.core import MarketStack
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

MARKET_COUNTS = (64, 1000, 10000)
CHUNK_BYTES = 32 * 1024 * 1024
MIN_MARKETS_PER_SECOND = 50.0


def solve_profile(num_markets):
    """Throughput + memory profile of one chunked city solve."""
    start = time.perf_counter()
    stack = MarketStack.from_grid(num_markets, seed=7)
    build_s = time.perf_counter() - start
    chunk = stack.resolve_chunk_size(chunk_bytes=CHUNK_BYTES)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = time.perf_counter()
        solved = stack.equilibria_stacked_chunked(chunk_bytes=CHUNK_BYTES)
        elapsed = time.perf_counter() - start
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    return {
        "markets": num_markets,
        "chunk_markets": chunk,
        "feasible": int(solved.feasible.sum()),
        "markets_per_s": num_markets / elapsed,
        "solve_s": elapsed,
        "build_s": build_s,
        "traced_peak_mb": traced_peak / 1e6,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
    }


def test_cityscale_throughput_and_memory(record_table):
    table = Table(
        headers=(
            "markets",
            "chunk",
            "feasible",
            "markets_per_s",
            "solve_s",
            "build_s",
            "traced_peak_mb",
            "ru_maxrss_mb",
        ),
        title=f"City-scale chunked solve (chunk budget {CHUNK_BYTES >> 20} MiB)",
    )
    profiles = {}
    for count in MARKET_COUNTS:
        profile = solve_profile(count)
        profiles[count] = profile
        table.add_row(*(profile[key] for key in (
            "markets", "chunk_markets", "feasible", "markets_per_s",
            "solve_s", "build_s", "traced_peak_mb", "ru_maxrss_mb",
        )))
    record_table("cityscale", table)

    largest = profiles[MARKET_COUNTS[-1]]
    assert largest["feasible"] > 0
    assert largest["markets_per_s"] >= MIN_MARKETS_PER_SECOND
    # The whole point of chunking: a 10k-market city solves inside the
    # same scratch budget a 1k-market city does.
    assert largest["traced_peak_mb"] * 1e6 <= CHUNK_BYTES
