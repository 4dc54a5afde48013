"""Stacked equilibrium solve: speedup evidence.

Times ``MarketStack.equilibria_stacked`` against the per-market
``equilibrium()`` loop over a heterogeneous grid (ragged populations,
mixed capacity enforcement) for M ∈ {8, 50} and records the evidence in
``benchmarks/results/equilibrium_speedup.txt``.

The comparison is exact by construction (the per-market call is the
``M = 1`` case of the stacked solve — see
``tests/test_core_equilibria_stacked.py``), so the timing difference is
pure per-market Python overhead removed: the looped path pays the
candidate enumeration, the 256-point refinement grid, and ~45 scalar
golden-section probes *per market*, while the stacked path runs the same
stages once over ``(M, ·)`` matrices.

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


def best_of(fn, repeats=REPEATS):
    """Minimum wall-clock of ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
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
    # solve refines through the scalar fast path (_refine_rows_scalar)
    # inside the one chunked solve, so the ratio sits around 4x (median
    # 4.0x over three runs on a 2-core x86 box). The floor is about half
    # that median: it still proves the batch removes per-market overhead
    # while leaving headroom for shared noisy runners.
    assert speedups[50] >= 2.0


def test_seam_overhead(record_json):
    """The ``repro.backend.xp`` seam adds ~no cost under the numpy default.

    Two mechanisms make the seam free in steady state, both measured here:

    - resolved attributes ARE the numpy callables (``xp.maximum is
      np.maximum`` — the proxy memoises ``getattr`` results into its own
      ``__dict__``, cleared only on a backend switch), so there is no
      per-call wrapper;
    - the remaining cost is one instance-attribute lookup per ``xp.<op>``
      expression, timed below against the equivalent ``np.<op>`` module
      lookup over a hot-path-sized workload.

    The macro number (a 50-market stacked round through the seam) is
    recorded for trend tracking; it has no non-seam twin to diff against —
    the hot path only exists in seam form — which is exactly why the
    micro dispatch ratio is the overhead evidence.
    """
    from repro.backend import SEAM_ATTRS, active_backend, xp

    assert active_backend().name == "numpy"
    # No per-call indirection: the seam resolves to the numpy callables.
    for name in SEAM_ATTRS:
        assert getattr(xp, name) is getattr(np, name)

    a = np.linspace(0.5, 9.5, 64)
    b = np.linspace(9.5, 0.5, 64)
    calls = 2000

    def via_np():
        for _ in range(calls):
            np.maximum(a, b)

    def via_xp():
        xp.maximum  # ensure the one-time memoisation is not in the timing
        for _ in range(calls):
            xp.maximum(a, b)

    np_s = best_of(via_np, repeats=20)
    xp_s = best_of(via_xp, repeats=20)
    per_call_overhead_ns = (xp_s - np_s) / calls * 1e9

    stack = MarketStack(fresh_markets(market_specs(50)))
    prices = np.array([m.config.unit_cost * 1.5 for m in stack.markets])

    def stacked_round():
        stack.outcomes_stacked(prices)

    round_s = best_of(stacked_round, repeats=20)

    record_json(
        "seam_overhead",
        {
            "benchmark": "seam_overhead",
            "backend": active_backend().name,
            "dispatch": {
                "calls": calls,
                "np_best_seconds": np_s,
                "xp_best_seconds": xp_s,
                "per_call_overhead_ns": per_call_overhead_ns,
            },
            "stacked_round_50_markets_best_seconds": round_s,
            "attrs_identical_to_numpy": True,
        },
    )

    # One attribute lookup per op: tens of nanoseconds, far below any
    # kernel's cost. Bound loosely — microbenchmarks on shared runners
    # jitter — while still catching an accidental per-call wrapper
    # (which would cost a microsecond-scale Python frame per op).
    assert per_call_overhead_ns < 500.0
