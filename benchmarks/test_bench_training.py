"""Training hot path: fused-update speedup evidence.

Times fig2-cadence PPO training (update every 20 rounds, 10 epochs of
20-sample mini-batches per update) over an ``E = 4`` vector env, twice:

- **seed path** — the oracle's ``train_reference``: the production trainer
  with per-epoch minibatch sampling (``PerEpochVectorTrainer`` in
  ``tests/training_oracle.py``) driving the autograd ``ReferencePPOAgent``
  over the graph network of ``tests/autograd_oracle.py``: graph act and
  value, and per-parameter Adam stepping each tensor through the autograd
  graph;
- **fused path** — ``train_pricing_agent``: ``VectorTrainer``, gathering
  each update phase's minibatches at once, driving ``PPOAgent`` over the
  flat-parameter ``ActorCritic``, whose graph-free
  :func:`repro.drl.fused.ppo_update` writes gradients into
  :class:`repro.drl.fused.FlatAdam`'s contiguous buffer.

Both paths share the rollout storage and the batch GAE, and they are
bitwise-identical by construction (``tests/test_drl_fused.py`` and
``tests/test_drl_vector_trainer.py`` pin every stat and every post-phase
parameter),
so the ratio is pure overhead removed — graph construction, per-node
closures, per-parameter optimizer dispatch, and per-epoch sampling.

The fused path's per-layer split is recorded next to it: best-of
microseconds per ``PPOAgent.update`` and per ``FlatAdam.step`` on a
fig2-sized minibatch, and per ``PPOAgent.act_batch`` and per
``VectorMigrationEnv.step`` on the paper's one-env fig2 market — the
layers perfbench's ``fig2_train`` traces.

Runs are interleaved seed/fused and scored best-of-``REPEATS``: scheduler
noise only ever *lengthens* a run, so the minimum of several interleaved
runs converges to each path's true cost even on a loaded machine.

Evidence lands in ``benchmarks/results/training_speedup.txt`` (table) and
``training_speedup.json`` (structured payload with the asserted floor).
"""

import time

import numpy as np
import pytest
from autograd_oracle import GraphActorCritic
from training_oracle import ReferencePPOAgent, train_reference

from repro.core.stackelberg import StackelbergMarket
from repro.drl.buffer import MiniBatch
from repro.drl.policy import ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.drl.trainer import TrainerConfig, train_pricing_agent
from repro.entities.vmu import paper_fig2_population
from repro.env import VectorMigrationEnv
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

NUM_ENVS = 4
ROUNDS_PER_EPISODE = 50
NUM_EPISODES = 10
REPEATS = 6
SPEEDUP_FLOOR = 2.0


def run_training(train) -> float:
    """One full training run through ``train`` (``train_pricing_agent`` or
    the oracle's ``train_reference``); returns wall-clock seconds."""
    market = StackelbergMarket(paper_fig2_population())
    venv = VectorMigrationEnv.from_market(
        market,
        NUM_ENVS,
        seed=0,
        history_length=2,
        rounds_per_episode=ROUNDS_PER_EPISODE,
        reward_mode="utility",
    )
    trainer_config = TrainerConfig(
        num_episodes=NUM_EPISODES,
        update_interval=20,
        update_epochs=10,
        batch_size=20,
        gamma=0.0,
    )
    start = time.perf_counter()
    train(
        venv,
        trainer_config=trainer_config,
        ppo_config=PPOConfig(learning_rate=1e-3),
        seed=11,
    )
    return time.perf_counter() - start


def interleaved_best_of(repeats=REPEATS):
    """Best wall-clock per path from ``repeats`` interleaved runs."""
    # Warm-up: first runs pay import/JIT-free numpy warmup and page faults.
    run_training(train_reference)
    run_training(train_pricing_agent)
    seed_best, fused_best = float("inf"), float("inf")
    for _ in range(repeats):
        seed_best = min(seed_best, run_training(train_reference))
        fused_best = min(fused_best, run_training(train_pricing_agent))
    return seed_best, fused_best


def update_latency(
    agent_cls, network_cls, *, calls: int = 100, trials: int = 5
) -> float:
    """Best mean seconds per ``agent.update`` on a fig2-sized mini-batch.

    ``agent_cls``/``network_cls`` is ``PPOAgent``/``ActorCritic`` or the
    oracle's ``ReferencePPOAgent``/``GraphActorCritic``.
    Isolates the PPO-update stage the fused path rewrites (forward,
    backward, optimizer step) from the env/rollout stages the two paths
    share. A tiny learning rate keeps the repeatedly-updated parameters in
    a numerically ordinary regime so every timed call does the same work.
    """
    batch_size, obs_dim, action_dim = 20, 12, 1
    rng = np.random.default_rng(5)
    batch = MiniBatch(
        observations=rng.normal(size=(batch_size, obs_dim)),
        actions=rng.normal(size=(batch_size, action_dim)),
        old_log_probs=rng.normal(size=batch_size),
        advantages=rng.normal(size=batch_size),
        returns=rng.normal(size=batch_size),
    )
    best = float("inf")
    for _ in range(trials):
        network = network_cls(obs_dim, (64, 64), seed=np.random.default_rng(3))
        agent = agent_cls(network, PPOConfig(learning_rate=1e-8))
        agent.update(batch)  # warm-up: lazy compiles and first allocations
        start = time.perf_counter()
        for _ in range(calls):
            agent.update(batch)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def best_micros(call, *, calls: int = 200, trials: int = 5) -> float:
    """Best mean microseconds per ``call()`` over ``trials`` timed loops."""
    call()  # warm-up
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def fused_layer_split(update_s: float) -> dict[str, float]:
    """Best-of microseconds per fused-path layer at fig2 shapes: one
    20-row update (from :func:`update_latency`), one Adam step, and one
    round's ``act_batch`` and ``env.step`` on the one-env paper market
    (``history_length=4``, so 12-wide observations)."""
    rng = np.random.default_rng(7)
    network = ActorCritic(12, (64, 64), seed=np.random.default_rng(3))
    agent = PPOAgent(network, PPOConfig(learning_rate=1e-8))
    optimizer = agent.optimizer
    optimizer.flat_grad[...] = rng.normal(size=optimizer.flat_grad.shape)
    market = StackelbergMarket(paper_fig2_population())
    venv = VectorMigrationEnv.from_market(
        market, 1, seed=0, rounds_per_episode=10**9, reward_mode="utility"
    )
    observations = venv.reset()
    prices = np.array([25.0])
    act_rng = np.random.default_rng(8)
    return {
        "update": update_s * 1e6,
        # The gradient stays put, so every step clips (as ~90% of fig2's do).
        "adam_step": best_micros(lambda: optimizer.step(0.5)),
        "act_batch": best_micros(lambda: agent.act_batch(observations, seed=act_rng)),
        "env_step": best_micros(lambda: venv.step(prices)),
    }


def test_training_speedup(record_table, record_json):
    seed_s, fused_s = interleaved_best_of()
    steps = NUM_EPISODES * NUM_ENVS * ROUNDS_PER_EPISODE
    speedup = seed_s / fused_s
    seed_update_s = update_latency(ReferencePPOAgent, GraphActorCritic)
    fused_update_s = update_latency(PPOAgent, ActorCritic)
    fused_layers = fused_layer_split(fused_update_s)

    table = Table(
        headers=(
            "path",
            "best_millis",
            "env_steps_per_s",
            "update_micros",
            "speedup",
        ),
        title=(
            "PPO training, fig2 cadence "
            f"(E={NUM_ENVS}, {NUM_EPISODES}x{ROUNDS_PER_EPISODE} rounds)"
        ),
    )
    table.add_row(
        "autograd agent + per-parameter Adam",
        seed_s * 1e3,
        steps / seed_s,
        seed_update_s * 1e6,
        1.0,
    )
    table.add_row(
        "fused agent + flat Adam",
        fused_s * 1e3,
        steps / fused_s,
        fused_update_s * 1e6,
        speedup,
    )
    record_table("training_speedup", table)
    # Overwrite the table mirror with the richer structured payload —
    # dashboards read the numbers without re-parsing the table rows.
    record_json(
        "training_speedup",
        {
            "benchmark": "training_speedup",
            "config": {
                "num_envs": NUM_ENVS,
                "num_episodes": NUM_EPISODES,
                "rounds_per_episode": ROUNDS_PER_EPISODE,
                "update_interval": 20,
                "update_epochs": 10,
                "batch_size": 20,
                "history_length": 2,
                "reward_mode": "utility",
                "repeats": REPEATS,
            },
            "env_steps": steps,
            "seed_path": {
                "best_seconds": seed_s,
                "env_steps_per_s": steps / seed_s,
                "ppo_update_seconds": seed_update_s,
            },
            "fused_path": {
                "best_seconds": fused_s,
                "env_steps_per_s": steps / fused_s,
                "ppo_update_seconds": fused_update_s,
                "layer_micros": fused_layers,
            },
            "speedup": speedup,
            "ppo_update_speedup": seed_update_s / fused_update_s,
            "asserted_floor": SPEEDUP_FLOOR,
        },
    )

    # Acceptance floor: the fused path must at least double fig2-config
    # env-steps/s over the autograd-agent path through the same trainer.
    # Measured medians sit around 2.15x on a 2-core box, so the headroom
    # is thin; interleaved best-of keeps the ratio stable on noisy runners.
    assert speedup >= SPEEDUP_FLOOR, (
        f"fused training speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR:.1f}x floor (seed {seed_s * 1e3:.1f} ms, "
        f"fused {fused_s * 1e3:.1f} ms)"
    )
