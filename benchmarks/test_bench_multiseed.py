"""Market-stack axis and multiseed fan-out: speedup evidence.

Times two scale levers and records the evidence in
``benchmarks/results/multiseed_speedup.txt``:

- **Stacked market solve** — a heterogeneous grid of ``M`` markets (ragged
  populations included), each evaluated on its own ``R``-point price grid,
  through one ``MarketStack.outcomes_stacked`` pass vs. ``M`` per-market
  ``outcomes_batch`` calls (which are themselves already vectorised over
  ``R`` — the baseline here is the *strong* one).
- **Fanned-out multiseed** — the ``multiseed`` spec running its per-seed
  ``market_scheme`` jobs (one DRL training each) over
  ``QueueScheduler(queue_dir, workers=k)`` (the inline worker plus
  ``k - 1`` local worker processes) vs. the in-process run.

Both comparisons are exact by construction (see
``tests/test_core_marketstack.py`` and
``tests/test_experiments_multiseed.py``), so the timing difference is pure
overhead removed, not a different computation.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import MarketStack
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.experiments import ExperimentConfig, run_experiment
from repro.queue import QueueScheduler
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

NUM_MARKETS = 64
GRID_POINTS = 128
SEEDS = tuple(range(6))
WORKERS = 3


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def heterogeneous_grid(count: int) -> list[StackelbergMarket]:
    rng = np.random.default_rng(0)
    markets = []
    for _ in range(count):
        population = sample_population(
            int(rng.integers(1, 9)), seed=int(rng.integers(0, 2**31))
        )
        config = MarketConfig(
            unit_cost=float(rng.uniform(3.0, 9.0)),
            max_bandwidth=float(rng.uniform(20.0, 60.0)),
        )
        markets.append(StackelbergMarket(population, config=config))
    return markets


def stacked_solve_table() -> tuple[Table, float]:
    markets = heterogeneous_grid(NUM_MARKETS)
    stack = MarketStack(markets)
    grids = np.stack(
        [
            np.linspace(m.config.unit_cost, m.config.max_price, GRID_POINTS)
            for m in markets
        ]
    )

    stacked = best_of(lambda: stack.outcomes_stacked(grids), repeats=5)
    per_market = best_of(
        lambda: [m.outcomes_batch(grids[i]) for i, m in enumerate(markets)],
        repeats=5,
    )
    speedup = per_market / stacked

    table = Table(
        headers=("path", "markets", "grid_points", "best_millis", "speedup"),
        title="Market stack — stacked vs per-market grid evaluation",
    )
    table.add_row(
        "per-market (M batched solves)",
        NUM_MARKETS,
        GRID_POINTS,
        per_market * 1e3,
        1.0,
    )
    table.add_row(
        "stacked (one pass)", NUM_MARKETS, GRID_POINTS, stacked * 1e3, speedup
    )
    return table, speedup


def fanout_table(queue_dir) -> tuple[Table, float]:
    market = StackelbergMarket(paper_fig2_population())
    # A reduced quick budget: heavy enough per seed (~2 s of DRL training)
    # that the process fan-out dominates worker start-up, light enough to
    # keep the benchmark in tens of seconds.
    config = replace(ExperimentConfig.quick(), num_episodes=40)
    params = {
        "market": market,
        "config": config,
        "seeds": SEEDS,
        "schemes": ("drl", "random"),
    }

    start = time.perf_counter()
    sequential_result = run_experiment("multiseed", params)
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    fanned_result = run_experiment(
        "multiseed", params, scheduler=QueueScheduler(queue_dir, workers=WORKERS)
    )
    fanned = time.perf_counter() - start
    assert fanned_result == sequential_result  # fan-out never changes data
    speedup = sequential / fanned

    # Fan-out speedup scales with the cores actually granted to the run (a
    # single-core box can at best break even), so record the budget next
    # to the measurement.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    table = Table(
        headers=("path", "seeds", "workers", "cores", "seconds", "speedup"),
        title="Multiseed — per-seed jobs over queue workers vs sequential",
    )
    table.add_row("sequential", len(SEEDS), 1, cores, sequential, 1.0)
    table.add_row(
        f"fanned out ({WORKERS} workers)",
        len(SEEDS),
        WORKERS,
        cores,
        fanned,
        speedup,
    )
    return table, speedup


def test_multiseed_speedups(record_table, tmp_path):
    stacked_table, stacked_speedup = stacked_solve_table()
    fanned_table, _ = fanout_table(tmp_path)
    record_table("multiseed_speedup", stacked_table, fanned_table)

    # Acceptance floor: the stacked pass must clearly beat M separate
    # (already-vectorised) solves — typically 2.5-3x, floor kept loose for
    # noisy shared runners. Fan-out speedup is recorded as evidence but not
    # asserted — it depends on the core budget (a 1-core box breaks even),
    # and exactness is already pinned above and in the test suite.
    assert stacked_speedup >= 1.5
