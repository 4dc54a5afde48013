"""City-scale chunked solve: markets/second and peak-RSS evidence.

Builds RSU-grid stacks via ``MarketStack.from_columns(city_columns(...))``
at M ∈ {64, 1000, 10000} and times ``equilibria_stacked_chunked`` in
chunks of as many rows as a 32 MiB budget holds by the solve's own
estimate (``solve_scratch_bytes_per_market``), recording throughput
(markets/second), the ``tracemalloc`` peak around the solve (which sees
numpy's allocations; construction is excluded from this peak only), and
the process ``ru_maxrss`` high-water mark (report-only: it never shrinks,
so only the budget-bounded traced peak is asserted). The construction time of the
stack is reported as ``build_s``: ``markets_per_s`` and ``solve_s`` time
the solve alone. The bench writes its table to
``benchmarks/results/cityscale.txt``.

Acceptance (ISSUE 6): the M = 10000 solve completes, its traced peak
stays inside the chunk budget, and throughput clears 50 markets/second.

Construction floor: ``city_columns`` at M = 10000 must beat the
per-index column loop it replaced (each junction drawn by its own
``np.random.default_rng([seed, i])``, ``rng_oracle.generator_draws``,
and one ``math.hypot`` scan per junction, kept as the oracle) by
``MIN_BUILD_SPEEDUP``, on the best of interleaved runs so host speed
cancels out, with bitwise-equal columns. The table goes to
``benchmarks/results/cityscale_build.txt``.
"""

import math
import resource
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import MarketStack
from repro.core.marketstack import solve_scratch_bytes_per_market
from repro.mobility import citygrid
from repro.mobility.citygrid import CityGridSpec, city_columns
from repro.utils.tables import Table
from rng_oracle import generator_draws

pytestmark = pytest.mark.slow

MARKET_COUNTS = (64, 1000, 10000)
CHUNK_BYTES = 32 * 1024 * 1024
MIN_MARKETS_PER_SECOND = 50.0
BUILD_MARKETS = 10000
BUILD_REPEATS = 7
MIN_BUILD_SPEEDUP = 4.5
COLUMN_FIELDS = (
    "counts", "immersion_coefs", "data_sizes_mb", "data_units",
    "spectral_efficiencies", "max_bandwidths", "distances_m", "unit_costs",
    "max_prices", "bandwidth_report_scales", "enforce_capacity",
)


def solve_profile(num_markets):
    """Throughput + memory profile of one chunked city solve."""
    start = time.perf_counter()
    stack = MarketStack.from_columns(
        city_columns(CityGridSpec.for_markets(num_markets, seed=7))
    )
    build_s = time.perf_counter() - start
    per_market = solve_scratch_bytes_per_market(stack.max_vmus)
    chunk = min(num_markets, CHUNK_BYTES // per_market)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = time.perf_counter()
        solved = stack.equilibria_stacked_chunked(chunk_size=chunk)
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


def per_index_road_lengths(spec, indices):
    """The oracle's geometry: a ``math.hypot`` scan of each junction's
    in-grid neighbours, one junction at a time."""
    rows, cols, block_m = spec.rows, spec.cols, spec.block_m
    lengths = []
    for index in indices.tolist():
        row, col = divmod(index, cols)
        x, y = float(col * block_m), float(row * block_m)
        lengths.append(min(
            math.hypot(float(c * block_m) - x, float(r * block_m) - y)
            for r, c in ((row, col - 1), (row, col + 1),
                         (row - 1, col), (row + 1, col))
            if 0 <= r < rows and 0 <= c < cols
        ))
    return np.array(lengths, dtype=np.float64)


def timed_build(spec):
    start = time.perf_counter()
    columns = city_columns(spec)
    return time.perf_counter() - start, columns


def test_city_columns_beat_the_per_index_loop(monkeypatch, record_table):
    spec = CityGridSpec.for_markets(BUILD_MARKETS, seed=7)
    fast, oracle = [], []
    for _ in range(BUILD_REPEATS):
        elapsed, columns = timed_build(spec)
        fast.append(elapsed)
        with monkeypatch.context() as patch:
            patch.setattr(citygrid, "indexed_draws", generator_draws)
            patch.setattr(citygrid, "_road_lengths", per_index_road_lengths)
            elapsed, expected = timed_build(spec)
        oracle.append(elapsed)
    for name in COLUMN_FIELDS:
        assert getattr(columns, name).tobytes() == (
            getattr(expected, name).tobytes()
        ), name
    speedup = min(oracle) / min(fast)
    table = Table(
        headers=("markets", "build_s", "per_index_build_s", "speedup"),
        title=f"City column construction (best of {BUILD_REPEATS}, interleaved)",
    )
    table.add_row(BUILD_MARKETS, min(fast), min(oracle), speedup)
    record_table("cityscale_build", table)
    assert speedup >= MIN_BUILD_SPEEDUP
