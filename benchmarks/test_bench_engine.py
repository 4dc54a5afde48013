"""Batched simulation engine: speedup evidence.

Times the two hot paths the engine vectorises and records the evidence in
``benchmarks/results/engine_speedup.txt``:

- **Market evaluation** — a 256-point leader price grid through one
  ``outcomes_batch`` pass vs. 256 scalar Stackelberg solves (the
  acceptance floor is 3×; observed is far higher).
- **Rollout collection** — E envs stepped through one episode by the
  vector env (one ``act_batch`` forward + one batched market solve per
  round) vs. E sequential rollouts of the scalar oracle env
  (``tests/training_oracle.py``). Both sides act through the graph
  actor-critic of ``tests/autograd_oracle.py``, so the ratio isolates
  batching.

Both comparisons are exact by construction (see tests/test_sim_engine.py
and tests/test_env_vector.py), so the timing difference is pure overhead
removed, not a different computation.
"""

import time

import pytest
import numpy as np
from autograd_oracle import GraphActorCritic
from game_oracle import scalar_landscape
from training_oracle import MigrationGameEnv

from repro.core.stackelberg import StackelbergMarket, uniform_price_grid
from repro.drl.policy import ActionScaler
from repro.entities.vmu import paper_fig2_population
from repro.env import VectorMigrationEnv
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

GRID_POINTS = 256
NUM_ENVS = 8
ROUNDS = 50


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def market_evaluation_table() -> tuple[Table, float]:
    market = StackelbergMarket(paper_fig2_population())
    grid = uniform_price_grid(
        market.config.unit_cost, market.config.max_price, GRID_POINTS
    )

    batched = best_of(lambda: market.outcomes_batch(grid), repeats=5)
    scalar = best_of(lambda: scalar_landscape(market, grid), repeats=5)
    speedup = scalar / batched

    table = Table(
        headers=("path", "grid_points", "best_millis", "speedup"),
        title="Engine — batched vs scalar market evaluation",
    )
    table.add_row("scalar (P solves)", GRID_POINTS, scalar * 1e3, 1.0)
    table.add_row("batched (one pass)", GRID_POINTS, batched * 1e3, speedup)
    return table, speedup


def _sequential_rollouts(market, seeds, network, scaler):
    for seed in seeds:
        env = MigrationGameEnv(
            market, history_length=4, rounds_per_episode=ROUNDS, seed=seed
        )
        rng = np.random.default_rng(0)
        observation = env.reset()
        for _ in range(ROUNDS):
            raw, _, _ = network.act(observation, seed=rng)
            observation, _, _, _ = env.step(float(scaler.to_price(raw[0])))


def _vector_rollouts(market, seeds, network, scaler):
    venv = VectorMigrationEnv.from_market(
        market, len(seeds), seeds=seeds, history_length=4, rounds_per_episode=ROUNDS
    )
    rng = np.random.default_rng(0)
    observations = venv.reset()
    for _ in range(ROUNDS):
        raws, _, _ = network.act_batch(observations, seed=rng)
        observations, _, _, _ = venv.step(scaler.to_price(raws[:, 0]))


def rollout_collection_table() -> tuple[Table, float]:
    market = StackelbergMarket(paper_fig2_population())
    seeds = list(range(NUM_ENVS))
    env = MigrationGameEnv(market, history_length=4, rounds_per_episode=ROUNDS)
    network = GraphActorCritic(env.observation_dim, seed=0)
    scaler = ActionScaler(env.action_low, env.action_high)

    vector = best_of(
        lambda: _vector_rollouts(market, seeds, network, scaler), repeats=3
    )
    sequential = best_of(
        lambda: _sequential_rollouts(market, seeds, network, scaler), repeats=3
    )
    speedup = sequential / vector

    table = Table(
        headers=("path", "envs", "rounds", "best_millis", "speedup"),
        title="Engine — vectorised vs sequential rollout collection",
    )
    table.add_row("sequential (E runs)", NUM_ENVS, ROUNDS, sequential * 1e3, 1.0)
    table.add_row("vectorised (env batch)", NUM_ENVS, ROUNDS, vector * 1e3, speedup)
    return table, speedup


def test_engine_speedups(record_table):
    market_table, market_speedup = market_evaluation_table()
    rollout_table, rollout_speedup = rollout_collection_table()
    record_table("engine_speedup", market_table, rollout_table)

    # Acceptance floor: >= 3x on a 256-point grid (typically 30-80x).
    assert market_speedup >= 3.0
    assert rollout_speedup >= 1.5
