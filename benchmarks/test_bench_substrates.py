"""E9 — substrate benchmarks: latency of the game and training substrates.

These are not paper figures; they are regression benches for the
substrates the reproduction is built on:

- equilibrium-solver latency (it is called inside every env round);
- PPO update throughput (dominates training time).
"""

import pytest
import numpy as np
from training_oracle import RolloutBuffer

from repro.core.stackelberg import StackelbergMarket
from repro.drl.policy import ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.entities.vmu import paper_fig2_population, sample_population

pytestmark = pytest.mark.slow


def test_equilibrium_solver_speed(benchmark):
    market = StackelbergMarket(sample_population(6, seed=0))
    equilibrium = benchmark(market.equilibrium)
    assert equilibrium.msp_utility > 0.0


def test_market_round_speed(benchmark):
    market = StackelbergMarket(paper_fig2_population())
    outcome = benchmark(market.round_outcome, 25.0)
    assert outcome.msp_utility > 0.0


def test_ppo_update_speed(benchmark):
    agent = PPOAgent(ActorCritic(obs_dim=12, seed=0), PPOConfig(learning_rate=1e-3))
    rng = np.random.default_rng(0)
    buffer = RolloutBuffer(gamma=0.0)
    for _ in range(20):
        obs = rng.normal(size=12)
        raw, log_prob, value = agent.act(obs, seed=rng)
        buffer.add(obs, raw, float(rng.normal()), log_prob, value)
    buffer.finalize(0.0)
    batch = buffer.sample(20, seed=0)
    stats = benchmark(agent.update, batch)
    assert np.isfinite(stats.policy_loss)

