"""Policy/PPO tests: action scaling, actor-critic wiring, update mechanics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from training_oracle import RolloutBuffer

from repro.drl.buffer import MiniBatch
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.errors import ConfigurationError

NAN, INF = float("nan"), float("inf")

# (low, high) pairs ActionScaler must refuse; load_agent builds the scaler
# from checkpoint metadata, so non-finite bounds are checked too.
INVALID_SCALER_BOUNDS = [(5.0, 5.0), (0.0, INF), (-INF, 5.0), (NAN, 5.0), (5.0, NAN)]

# PPOConfig keyword sets that must raise; NaN and inf slip past plain
# range comparisons, so each numeric knob gets a non-finite case.
INVALID_PPO_CONFIGS = [
    dict(learning_rate=0.0),
    dict(clip_epsilon=0.0),
    dict(value_coef=-1.0),
    dict(max_grad_norm=0.0),
    dict(learning_rate=NAN),
    dict(learning_rate=INF),
    dict(max_grad_norm=NAN),
    dict(max_grad_norm=INF),
    dict(value_coef=NAN),
    dict(value_coef=INF),
    dict(entropy_coef=NAN),
    dict(entropy_coef=INF),
    dict(clip_epsilon=NAN),
]


def to_raw(scaler, price):
    """The inverse of ``scaler.to_price`` on ``[low, high]``: boundary
    prices map to raw ±1."""
    return (np.asarray(price, dtype=float) - scaler.mid) / scaler.half_range


class TestActionScaler:
    def test_raw_zero_is_mid_price(self):
        scaler = ActionScaler(low=5.0, high=50.0)
        assert scaler.to_price(0.0) == pytest.approx(27.5)

    def test_raw_one_is_high(self):
        scaler = ActionScaler(low=5.0, high=50.0)
        assert scaler.to_price(1.0) == pytest.approx(50.0)
        assert scaler.to_price(-1.0) == pytest.approx(5.0)

    def test_clipping_beyond_unit(self):
        scaler = ActionScaler(low=5.0, high=50.0)
        assert scaler.to_price(7.0) == 50.0
        assert scaler.to_price(-7.0) == 5.0

    def test_inverse(self):
        scaler = ActionScaler(low=5.0, high=50.0)
        assert to_raw(scaler, 27.5) == pytest.approx(0.0)
        assert to_raw(scaler, 50.0) == pytest.approx(1.0)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_round_trip_inside_range(self, raw):
        scaler = ActionScaler(low=5.0, high=50.0)
        assert to_raw(scaler, scaler.to_price(raw)) == pytest.approx(raw, abs=1e-12)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_price_always_feasible(self, raw):
        scaler = ActionScaler(low=5.0, high=50.0)
        assert 5.0 <= scaler.to_price(raw) <= 50.0

    def test_invalid_bounds(self):
        for low, high in INVALID_SCALER_BOUNDS:
            with pytest.raises(ConfigurationError):
                ActionScaler(low=low, high=high)


class TestActorCritic:
    def test_distribution_and_value_shapes(self):
        net = ActorCritic(obs_dim=12, hidden_sizes=(64, 64), seed=0)
        _, _, mean, value = net.forward(np.zeros((7, 12)))
        assert mean.shape == (7, 1)
        assert value.shape == (7,)

    def test_wrong_obs_width_rejected(self):
        net = ActorCritic(obs_dim=12, seed=0)
        with pytest.raises(ConfigurationError):
            net.value_batch(np.zeros((2, 5)))

    def test_act_deterministic_is_repeatable(self):
        net = ActorCritic(obs_dim=4, seed=0)
        obs = np.ones(4)
        a1, _, _ = net.act(obs, deterministic=True)
        a2, _, _ = net.act(obs, deterministic=True)
        np.testing.assert_array_equal(a1, a2)

    def test_act_stochastic_varies(self):
        net = ActorCritic(obs_dim=4, seed=0)
        obs = np.ones(4)
        a1, _, _ = net.act(obs, seed=1)
        a2, _, _ = net.act(obs, seed=2)
        assert a1[0] != a2[0]

    def test_act_returns_consistent_log_prob(self):
        net = ActorCritic(obs_dim=4, seed=0)
        obs = np.ones(4)
        raw, log_prob, _ = net.act(obs, seed=3)
        mean, _, _ = net.act(obs, deterministic=True)
        reference = stats.norm(mean[0], np.exp(net.log_std[0])).logpdf(raw[0])
        assert log_prob == pytest.approx(reference, rel=1e-12)

    def test_shared_trunk_feeds_both_heads(self):
        """A gradient step through the value head alone must move trunk
        params (the paper: policy and value share θ)."""
        net = ActorCritic(obs_dim=4, seed=0)
        agent = PPOAgent(net, PPOConfig(learning_rate=1e-2))
        trunk_before = [w.copy() for w, _ in net.trunk]
        rng = np.random.default_rng(0)
        # Zero advantages and no entropy bonus: only the value loss has a
        # gradient.
        agent.update(
            MiniBatch(
                observations=rng.normal(size=(4, 4)),
                actions=rng.normal(size=(4, 1)),
                old_log_probs=np.zeros(4),
                advantages=np.zeros(4),
                returns=np.full(4, 5.0),
            )
        )
        assert np.abs(agent.optimizer.grad_views[0]).sum() == 0.0  # log_std
        assert all(
            not np.array_equal(before, weight)
            for before, (weight, _) in zip(trunk_before, net.trunk)
        )

    def test_log_std_is_trainable(self):
        net = ActorCritic(obs_dim=4, seed=0)
        assert next(iter(net.state_dict())) == "log_std"
        assert np.shares_memory(net.log_std, net.views_of(net.flat_parameters)[0])
        agent = PPOAgent(net, PPOConfig(learning_rate=1e-2, entropy_coef=0.1))
        before = net.log_std.copy()
        agent.update(make_batch(agent))
        assert net.log_std[0] != before[0]

    def test_initial_policy_near_mid(self):
        # Small actor-head gain: raw mean ~0 at init (mid price after scaling).
        net = ActorCritic(obs_dim=4, seed=0)
        _, _, mean, _ = net.forward(np.random.default_rng(0).normal(size=(10, 4)))
        assert np.abs(mean).max() < 0.2

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ActorCritic(obs_dim=0)
        with pytest.raises(ConfigurationError):
            ActorCritic(obs_dim=4, hidden_sizes=())
        with pytest.raises(ConfigurationError):
            ActorCritic(obs_dim=4, hidden_sizes=(8, 0))


def make_batch(agent: PPOAgent, n=16, seed=0) -> MiniBatch:
    rng = np.random.default_rng(seed)
    buffer = RolloutBuffer(gamma=0.0)
    for _ in range(n):
        obs = rng.normal(size=agent.network.obs_dim)
        raw, log_prob, value = agent.act(obs, seed=rng)
        reward = -float(raw[0] ** 2)  # bandit: prefer raw action 0
        buffer.add(obs, raw, reward, log_prob, value)
    buffer.finalize(0.0)
    return buffer.sample(n, seed=rng)


class TestPPOAgent:
    def test_update_returns_stats(self):
        agent = PPOAgent(ActorCritic(obs_dim=4, seed=0), PPOConfig(learning_rate=1e-3))
        stats = agent.update(make_batch(agent))
        assert np.isfinite(stats.policy_loss)
        assert stats.value_loss >= 0.0
        assert 0.0 <= stats.clip_fraction <= 1.0

    def test_first_update_unclipped(self):
        """On-policy first step: ratio == 1 everywhere, clip fraction 0,
        approx KL ~ 0."""
        agent = PPOAgent(ActorCritic(obs_dim=4, seed=0), PPOConfig(learning_rate=1e-4))
        stats = agent.update(make_batch(agent))
        assert stats.clip_fraction == 0.0
        assert abs(stats.approx_kl) < 1e-9

    def test_update_moves_parameters(self):
        agent = PPOAgent(ActorCritic(obs_dim=4, seed=0), PPOConfig(learning_rate=1e-2))
        before = agent.network.state_dict()
        agent.update(make_batch(agent))
        after = agent.network.state_dict()
        moved = any(
            not np.allclose(before[name], after[name]) for name in before
        )
        assert moved

    def test_bandit_improves(self):
        """PPO on a 1-step bandit (reward = -raw²) shifts the policy mean
        toward 0 and shrinks the loss."""
        agent = PPOAgent(
            ActorCritic(obs_dim=2, seed=1, initial_log_std=0.0),
            PPOConfig(learning_rate=5e-3),
        )
        obs = np.zeros(2)
        def mean_abs_action():
            raw, _, _ = agent.act(obs, deterministic=True)
            return abs(float(raw[0]))
        # Nudge the policy off-centre first so there is something to learn.
        for parameter in agent.network.actor_head:
            parameter += 0.3
        start = mean_abs_action()
        rng = np.random.default_rng(0)
        for _ in range(60):
            buffer = RolloutBuffer(gamma=0.0)
            for _ in range(32):
                raw, log_prob, value = agent.act(obs, seed=rng)
                buffer.add(obs, raw, -float(raw[0] ** 2), log_prob, value)
            buffer.finalize(0.0)
            agent.update(buffer.sample(32, seed=rng))
        assert mean_abs_action() < start

    def test_value_function_learns_constant(self):
        agent = PPOAgent(ActorCritic(obs_dim=2, seed=0), PPOConfig(learning_rate=1e-2))
        obs = np.ones(2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            buffer = RolloutBuffer(gamma=0.0)
            for _ in range(8):
                raw, log_prob, value = agent.act(obs, seed=rng)
                buffer.add(obs, raw, 3.0, log_prob, value)  # constant reward
            buffer.finalize(0.0)
            agent.update(buffer.sample(8, seed=rng))
        assert agent.value(obs) == pytest.approx(3.0, abs=0.5)

    def test_invalid_configs(self):
        for kwargs in INVALID_PPO_CONFIGS:
            with pytest.raises(ConfigurationError):
                PPOConfig(**kwargs)
