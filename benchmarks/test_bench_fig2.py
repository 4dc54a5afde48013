"""E1/E2 — Fig. 2: convergence of the DRL-based incentive mechanism.

Fig. 2(a): the per-episode game return (count of Eq.-12 rewards) rises
toward the max round count K as the policy converges.
Fig. 2(b): the episode-best MSP utility converges to the Stackelberg
equilibrium utility.

Budget note (EXPERIMENTS.md): the paper trains E = 500 episodes of K = 100
rounds at lr = 1e-5; the bench uses 150 episodes at lr = 1e-3 with γ = 0
(the game is a contextual bandit), which converges to the same equilibrium
in ~20 s. Run ``python -m repro.experiments.run run fig2 --param
preset=paper`` for the full-budget version.
"""

import pytest
import numpy as np

from repro.experiments import ExperimentConfig, run_experiment
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

FIG2A_CONFIG = ExperimentConfig(
    num_episodes=150,
    rounds_per_episode=100,
    learning_rate=1e-3,
    gamma=0.0,
    reward_mode="paper",
    entropy_coef=1e-3,
    seed=0,
)


def test_fig2_convergence(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_experiment("fig2", {"config": FIG2A_CONFIG}),
        rounds=1,
        iterations=1,
    )

    table = result.table(stride=15)
    summary = Table(
        headers=("metric", "early (first 10%)", "converged (last 10%)", "target"),
        title="Fig. 2 summary — DRL vs Stackelberg equilibrium",
    )
    early_count = max(1, len(result.episode_returns) // 10)
    summary.add_row(
        "episode return (a)",
        float(np.mean(result.episode_returns[:early_count])),
        result.converged_return,
        float(result.max_round),
    )
    summary.add_row(
        "best MSP utility (b)",
        float(np.mean(result.episode_best_utilities[:early_count])),
        result.converged_utility,
        result.equilibrium_utility,
    )
    record_table("fig2", table, summary)

    # Fig. 2(a): return converges toward the max round count.
    early_return = float(np.mean(result.episode_returns[:early_count]))
    assert result.converged_return > early_return
    assert result.converged_return > 0.8 * result.max_round
    # Fig. 2(b): the best utility matches the equilibrium within 1%.
    assert result.utility_gap < 0.01
