"""N-MSP oligopoly solve: lattice-batched best response speedup evidence.

Times the Gauss-Seidel equilibrium solve with the lattice-batched best
response (one vectorised ``(P, N)`` utility evaluation per MSP per
sweep) against the scalar reference in ``tests/game_oracle.py`` (one
``msp_utility()`` call per lattice point, run inside the same production
Gauss-Seidel loop), over a fixed number of sweeps so both paths do
identical economic work. The default tick gives a 901-point lattice
(≥ 256), and the two paths are asserted bitwise-equal before any timing
is trusted; that assertion is also the oracle's guard.

The bench writes ``benchmarks/results/oligopoly_speedup.txt`` (table)
and ``oligopoly_speedup.json`` (structured payload via ``record_json``).
"""

import time

import numpy as np
import pytest
from game_oracle import scalar_oligopoly_equilibrium

from repro.core.multimsp import MspSpec, MultiMspMarket
from repro.entities.vmu import paper_fig2_population
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

SWEEPS = 8
REPEATS = 3
INITIAL = [25.0, 30.0]
MIN_SPEEDUP = 10.0


def duopoly() -> MultiMspMarket:
    # Default tick 0.05 on [5, 50] → a 901-point lattice per MSP.
    return MultiMspMarket(
        paper_fig2_population(),
        [
            MspSpec("msp-a", unit_cost=5.0, capacity=0.3),
            MspSpec("msp-b", unit_cost=5.0, capacity=0.3),
        ],
    )


SOLVE_KWARGS = dict(
    initial_prices=INITIAL,
    max_iterations=SWEEPS,
    tolerance=0.0,  # never converge early: fixed work on both paths
    record_trace=True,
)


def solve_batched():
    return duopoly().equilibrium(**SOLVE_KWARGS)


def solve_scalar():
    return scalar_oligopoly_equilibrium(duopoly(), **SOLVE_KWARGS)


def best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_oligopoly_lattice_batching_speedup(record_table, record_json):
    market = duopoly()
    lattice_points = market._price_lattice(5.0).size
    assert lattice_points >= 256

    batched = solve_batched()
    scalar = solve_scalar()
    # Bitwise equality first — a fast wrong answer is worthless.
    np.testing.assert_array_equal(batched.prices, scalar.prices)
    np.testing.assert_array_equal(
        batched.trace.profiles, scalar.trace.profiles
    )
    np.testing.assert_array_equal(
        batched.trace.residuals, scalar.trace.residuals
    )

    batched_seconds = best_of(solve_batched)
    scalar_seconds = best_of(solve_scalar)
    speedup = scalar_seconds / batched_seconds

    table = Table(
        headers=("path", "lattice", "sweeps", "best_millis", "speedup"),
        title="Oligopoly Gauss-Seidel — lattice-batched vs scalar best response",
    )
    table.add_row("scalar", lattice_points, SWEEPS, scalar_seconds * 1e3, 1.0)
    table.add_row(
        "batched", lattice_points, SWEEPS, batched_seconds * 1e3, speedup
    )
    record_table("oligopoly_speedup", table)
    record_json(
        "oligopoly_speedup",
        {
            "benchmark": "oligopoly_speedup",
            "lattice_points": int(lattice_points),
            "sweeps": SWEEPS,
            "num_msps": market.num_msps,
            "scalar_seconds": scalar_seconds,
            "batched_seconds": batched_seconds,
            "speedup": speedup,
            "bitwise_equal": True,
            "min_speedup_required": MIN_SPEEDUP,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"lattice batching must be >= {MIN_SPEEDUP}x at "
        f"{lattice_points} lattice points, got {speedup:.1f}x"
    )
