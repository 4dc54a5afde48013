"""VectorTrainer tests: batched Algorithm 1 over an env batch.

The key regression: a vector run is bit-compatible with the oracle
trainers of ``tests/training_oracle.py`` on the same seeds. An E = 1 run
reproduces the scalar ``Trainer``, and every pool shape reproduces
``PerEpochVectorTrainer`` (one ``choice`` and one gather per epoch, where
production gathers a whole phase at once): same RNG consumption order,
same sampled rows, same statistics and parameters after every phase.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from autograd_oracle import GraphActorCritic
from training_oracle import (
    MigrationGameEnv,
    PerEpochVectorTrainer,
    ReferencePPOAgent,
    Trainer,
    concatenate_minibatches,
    sample_minibatch,
    train_reference,
)

from repro.core.stackelberg import StackelbergMarket
from repro.drl.buffer import MiniBatch, sample_minibatches
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.drl.trainer import TrainerConfig, VectorTrainer, train_pricing_agent
from repro.entities.vmu import paper_fig2_population
from repro.env import VectorMigrationEnv
from repro.errors import ConfigurationError, GradientError
from repro.utils.rng import as_generator


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


SMOKE = TrainerConfig(
    num_episodes=3,
    update_interval=5,
    update_epochs=2,
    batch_size=5,
    gamma=0.0,
)

ENV_KWARGS = dict(history_length=2, rounds_per_episode=10, reward_mode="utility")

# (num_envs, trainer config, env kwargs) per pool shape.
POOLS = {
    "one_env": (1, SMOKE, ENV_KWARGS),
    "two_envs": (2, SMOKE, ENV_KWARGS),
    "four_envs": (4, SMOKE, ENV_KWARGS),
    # 4-round segments and a 2-round flush: for E = 1 every pool, for
    # E = 2 the flush pool, is smaller than batch_size 5, so those phases
    # sample with replacement.
    "flush_below_batch": (1, replace(SMOKE, update_interval=4), ENV_KWARGS),
    "flush_below_batch_two_envs": (2, replace(SMOKE, update_interval=4), ENV_KWARGS),
    # 4- and 7-row blocks of 9-wide observations are 288 and 504 bytes,
    # so phase blocks after the first start off a 64-byte boundary.
    "unaligned_blocks": (
        1,
        replace(SMOKE, batch_size=4, update_epochs=3),
        dict(ENV_KWARGS, history_length=3),
    ),
    "unaligned_blocks_two_envs": (
        2,
        replace(SMOKE, batch_size=7, update_epochs=3),
        dict(ENV_KWARGS, history_length=3),
    ),
}


class PhaseRecorder:
    """An agent that snapshots its network after every PPO phase
    (every ``epochs`` updates); everything else goes to the wrapped agent."""

    def __init__(self, agent, epochs):
        self.agent = agent
        self.epochs = epochs
        self.snapshots = []
        self._updates = 0

    def __getattr__(self, name):
        return getattr(self.agent, name)

    def update(self, batch):
        stats = self.agent.update(batch)
        self._updates += 1
        if self._updates % self.epochs == 0:
            self.snapshots.append(self.agent.network.state_dict())
        return stats


def train_recorded(env, config, ppo_config, *, oracle, seed=11):
    """``train_pricing_agent`` (or, with ``oracle``, ``train_reference``)
    built step for step, with a :class:`PhaseRecorder` around the agent."""
    rng = as_generator(seed)
    network_cls, agent_cls = (
        (GraphActorCritic, ReferencePPOAgent) if oracle else (ActorCritic, PPOAgent)
    )
    network = network_cls(env.observation_dim, (64, 64), seed=rng)
    agent = PhaseRecorder(agent_cls(network, ppo_config), config.update_epochs)
    scaler = ActionScaler(low=env.action_low, high=env.action_high)
    if not oracle:
        trainer_cls = VectorTrainer
    elif hasattr(env, "num_envs"):
        trainer_cls = PerEpochVectorTrainer
    else:
        trainer_cls = Trainer
    return agent, trainer_cls(env, agent, scaler, config, seed=rng).train()


def stats_bits(stats):
    return [tuple(float(value).hex() for value in astuple(s)) for s in stats]


def assert_same_bits(state_a, state_b, context=""):
    assert list(state_a) == list(state_b)
    for name, value in state_b.items():
        assert state_a[name].shape == value.shape, f"{context}{name}"
        assert state_a[name].tobytes() == value.tobytes(), f"{context}{name}"


def assert_same_runs(run, oracle_run):
    """Traces, every UpdateStats field and the parameters after every
    phase, bit for bit."""
    (agent, result), (oracle_agent, oracle_result) = run, oracle_run
    for trace in (
        "episode_returns",
        "episode_best_utilities",
        "episode_mean_utilities",
        "episode_final_prices",
    ):
        assert getattr(result, trace) == getattr(oracle_result, trace), trace
    assert stats_bits(result.update_stats) == stats_bits(oracle_result.update_stats)
    assert len(agent.snapshots) == len(oracle_agent.snapshots) > 0
    for phase, (state, oracle_state) in enumerate(
        zip(agent.snapshots, oracle_agent.snapshots)
    ):
        assert_same_bits(state, oracle_state, f"phase {phase}: ")


class TestSingleEnvBitCompatibility:
    @pytest.mark.parametrize(
        "pool", ["one_env", "four_envs", "flush_below_batch", "unaligned_blocks"]
    )
    def test_vector_trainer_matches_scalar_trainer(self, market, pool):
        """E = 1: every trace, every update statistic and the parameters
        after every phase must be identical to the scalar oracle Trainer
        driving the autograd agent, bit for bit. The scalar loop plays one
        env, so the four-env pool is held to the per-epoch oracle trainer."""
        num_envs, config, env_kwargs = POOLS[pool]
        ppo_config = PPOConfig(learning_rate=1e-3)
        venv = VectorMigrationEnv.from_market(market, num_envs, seed=0, **env_kwargs)
        if num_envs == 1:
            oracle_env = MigrationGameEnv(market, seed=0, **env_kwargs)
        else:
            oracle_env = VectorMigrationEnv.from_market(
                market, num_envs, seed=0, **env_kwargs
            )
        assert_same_runs(
            train_recorded(venv, config, ppo_config, oracle=False),
            train_recorded(oracle_env, config, ppo_config, oracle=True),
        )

    def test_dispatch_picks_trainer_by_env_type(self, market):
        """Only vector envs train in production; the scalar loop survives
        as the oracle Trainer."""
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        venv = VectorMigrationEnv.from_market(market, 1, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=0)
        agent = PPOAgent(network, PPOConfig(learning_rate=1e-3))
        scaler = ActionScaler(env.action_low, env.action_high)
        assert isinstance(Trainer(env, agent, scaler, SMOKE, seed=0), Trainer)
        assert isinstance(
            VectorTrainer(venv, agent, scaler, SMOKE, seed=0), VectorTrainer
        )
        with pytest.raises(ConfigurationError):
            VectorTrainer(env, agent, scaler, SMOKE, seed=0)


@pytest.mark.parametrize(
    "pool",
    [
        "two_envs",
        "four_envs",
        "flush_below_batch_two_envs",
        "unaligned_blocks_two_envs",
    ],
)
def test_fig2_smoke_training_fused_matches_reference(market, pool):
    """The production trainer and agent (phase gather, flat Adam,
    graph-free update) against the oracle trainer and agent (per-epoch
    sampling, autograd update): identical traces, update statistics, and
    parameters after every phase, bit for bit."""
    num_envs, config, env_kwargs = POOLS[pool]
    ppo_config = PPOConfig(learning_rate=1e-3, entropy_coef=0.01)

    def env():
        return VectorMigrationEnv.from_market(market, num_envs, seed=0, **env_kwargs)

    run = train_recorded(env(), config, ppo_config, oracle=False)
    assert_same_runs(run, train_recorded(env(), config, ppo_config, oracle=True))
    # The hand-built runs are the library's own entry points.
    agent, result, _ = train_pricing_agent(
        env(), trainer_config=config, ppo_config=ppo_config, seed=11
    )
    assert stats_bits(result.update_stats) == stats_bits(run[1].update_stats)
    assert_same_bits(agent.network.state_dict(), run[0].network.state_dict())
    oracle_agent, oracle_result, _ = train_reference(
        env(), trainer_config=config, ppo_config=ppo_config, seed=11
    )
    assert stats_bits(oracle_result.update_stats) == stats_bits(result.update_stats)
    assert_same_bits(oracle_agent.network.state_dict(), agent.network.state_dict())


def test_poisoned_pool_raises_with_the_network_unchanged(market):
    """A NaN reward in the second segment poisons that phase's pool. Its
    first update raises GradientError before the Adam step, so the network
    keeps the parameters the first phase left; the phase had already made
    all M of its draws, which is where the trainer's stream stands."""

    class PoisonedEnv(VectorMigrationEnv):
        def step(self, actions):
            observations, rewards, dones, infos = super().step(actions)
            self.rounds_played += 1
            if self.rounds_played == 8:
                rewards = np.full_like(rewards, np.nan)
            return observations, rewards, dones, infos

    venv = PoisonedEnv.from_market(market, 1, seed=0, **ENV_KWARGS)
    venv.rounds_played = 0
    rng = np.random.default_rng(11)
    network = ActorCritic(venv.observation_dim, (8,), seed=rng)
    agent = PhaseRecorder(
        PPOAgent(network, PPOConfig(learning_rate=1e-3)), SMOKE.update_epochs
    )
    scaler = ActionScaler(venv.action_low, venv.action_high)
    trainer = VectorTrainer(venv, agent, scaler, SMOKE, seed=rng)
    with pytest.raises(GradientError, match="non-finite"):
        trainer.train()
    assert len(agent.snapshots) == 1
    assert agent.optimizer.step_count == SMOKE.update_epochs
    assert len(trainer.result.update_stats) == SMOKE.update_epochs
    assert_same_bits(network.state_dict(), agent.snapshots[0])

    replay = np.random.default_rng(11)
    ActorCritic(venv.observation_dim, (8,), seed=replay)
    for _phase in range(2):
        replay.normal(size=(SMOKE.update_interval, 1, 1))
        for _epoch in range(SMOKE.update_epochs):
            replay.choice(SMOKE.update_interval, size=SMOKE.batch_size, replace=False)
    assert rng.bit_generator.state == replay.bit_generator.state


class TestConcurrentCollection:
    def test_collects_e_episodes_per_iteration(self, market):
        venv = VectorMigrationEnv.from_market(market, 4, seed=0, **ENV_KWARGS)
        _, result, _ = train_pricing_agent(
            venv, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=11
        )
        assert result.num_episodes == SMOKE.num_episodes * 4
        assert len(result.episode_final_prices) == SMOKE.num_episodes * 4
        # 10 rounds / interval 5 → 2 update triggers × 2 epochs × 3 iterations,
        # independent of E (segments are pooled, not iterated per env).
        assert len(result.update_stats) == 12

    def test_mean_utilities_reduce_each_envs_own_row(self, market):
        """Each env's episode mean is np.mean over that env's K utilities
        (the scalar loop's reduction), not a column of a (K, E) mean,
        which sums naively once K > 8 and can change the bits."""

        class Recording(VectorMigrationEnv):
            def step(self, actions):
                step = super().step(actions)
                self.rounds.append(step[3]["msp_utility"].tolist())
                return step

        E, K = 4, 30
        kwargs = dict(ENV_KWARGS, rounds_per_episode=K)
        venv = Recording.from_markets([market] * E, seed=0, **kwargs)
        venv.rounds = []
        config = TrainerConfig(
            num_episodes=2, update_interval=10, update_epochs=1, batch_size=5
        )
        _, result, _ = train_pricing_agent(
            venv, trainer_config=config, ppo_config=PPOConfig(), seed=3
        )
        expected = []
        for episode in range(config.num_episodes):
            rows = venv.rounds[episode * K : (episode + 1) * K]
            expected += [float(np.mean([row[e] for row in rows])) for e in range(E)]
        assert result.episode_mean_utilities == expected

    def test_prices_feasible(self, market):
        venv = VectorMigrationEnv.from_market(market, 3, seed=0, **ENV_KWARGS)
        _, result, _ = train_pricing_agent(
            venv, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=11
        )
        assert all(5.0 <= p <= 50.0 for p in result.episode_final_prices)

    def test_deterministic_given_seeds(self, market):
        def run():
            venv = VectorMigrationEnv.from_market(market, 3, seed=5, **ENV_KWARGS)
            _, result, _ = train_pricing_agent(
                venv,
                trainer_config=SMOKE,
                ppo_config=PPOConfig(learning_rate=1e-3),
                seed=11,
            )
            return result.episode_returns

        assert run() == run()


class TestBatchedActPaths:
    def test_act_batch_first_row_matches_act(self, market):
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=3)
        observation = env.reset()
        raw_a, logp_a, value_a = network.act(
            observation, seed=np.random.default_rng(9)
        )
        raws, logps, values = network.act_batch(
            observation.reshape(1, -1), seed=np.random.default_rng(9)
        )
        assert (raws[0] == raw_a).all()
        assert logps[0] == logp_a
        assert values[0] == value_a

    def test_act_batch_rejects_bad_shapes(self, market):
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=3)
        with pytest.raises(ConfigurationError):
            network.act_batch(np.zeros(env.observation_dim))

    def test_value_batch_matches_value(self, market):
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=3)
        agent = PPOAgent(network, PPOConfig(learning_rate=1e-3))
        observation = env.reset()
        # A one-row batch is the bit-compat contract (same shapes, same
        # BLAS kernel); wider batches may differ in the last ulp.
        assert agent.value_batch(observation.reshape(1, -1))[0] == agent.value(
            observation
        )
        batch = np.stack([observation, observation * 0.5])
        values = agent.value_batch(batch)
        assert values.shape == (2,)
        assert values[0] == pytest.approx(agent.value(observation), rel=1e-12)


class TestBufferPooling:
    def _batch(self, offset):
        return MiniBatch(
            observations=np.full((4, 2), float(offset)),
            actions=np.full((4, 1), float(offset)),
            old_log_probs=np.arange(4.0) + offset,
            advantages=np.arange(4.0) + offset,
            returns=np.arange(4.0) + offset,
        )

    def test_concatenate_pools_along_batch_axis(self):
        pool = concatenate_minibatches([self._batch(0), self._batch(10)])
        assert pool.observations.shape == (8, 2)
        assert pool.old_log_probs[4] == 10.0

    def test_concatenate_single_is_identity(self):
        batch = self._batch(0)
        assert concatenate_minibatches([batch]) is batch

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            concatenate_minibatches([])

    def test_sample_minibatch_draws_from_pool(self):
        """The phase sampler's blocks are the per-epoch oracle sampler's
        mini-batches on the same stream, in epoch order, with and without
        replacement."""
        pool = concatenate_minibatches([self._batch(0), self._batch(10)])
        for batch_size in (3, 8, 11):
            rng, oracle_rng = np.random.default_rng(0), np.random.default_rng(0)
            batches = sample_minibatches(pool, batch_size, 4, seed=rng)
            assert len(batches) == 4
            for batch in batches:
                expected = sample_minibatch(pool, batch_size, seed=oracle_rng)
                assert batch.observations.shape == (batch_size, 2)
                for name in (
                    "observations",
                    "actions",
                    "old_log_probs",
                    "advantages",
                    "returns",
                ):
                    np.testing.assert_array_equal(
                        getattr(batch, name), getattr(expected, name), err_msg=name
                    )
                for row in batch.old_log_probs:
                    assert row in pool.old_log_probs
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_sample_minibatches_rejects_empty_requests(self):
        pool = self._batch(0)
        with pytest.raises(ConfigurationError):
            sample_minibatches(pool, 0, 2, seed=0)
        with pytest.raises(ConfigurationError):
            sample_minibatches(pool, 2, 0, seed=0)
