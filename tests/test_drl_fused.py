"""Fused training hot path: bitwise pins against the reference implementations.

Every fast path of the flat-parameter training stack is pinned here against
its reference counterpart, bit for bit:

- the flat :class:`ActorCritic` vs the oracle's graph network: identical
  initial ``state_dict`` from the same seed, identical act/value outputs;
- :class:`FlatAdam` (whole-buffer clip and Adam step) vs the oracle's
  per-parameter ``clip_grad_norm`` + ``Adam``;
- the batched GAE/returns recursions vs the oracle's scalar
  per-trajectory ones;
- :class:`VectorRolloutStorage` pooling vs the oracle's per-env
  ``RolloutBuffer`` finalize + ``concatenate_minibatches``;
- the graph-free PPO update (through ``PPOAgent``) vs the oracle's
  autograd ``ReferencePPOAgent``.

The oracles live in ``tests/autograd_oracle.py`` and
``tests/training_oracle.py``.
"""

import math

import numpy as np
import pytest
from autograd_oracle import Adam, GraphActorCritic, Tensor, clip_grad_norm
from training_oracle import (
    ReferencePPOAgent,
    RolloutBuffer,
    concatenate_minibatches,
    discounted_returns,
    generalized_advantages,
)

from repro.drl.buffer import MiniBatch, VectorRolloutStorage
from repro.drl.fused import FlatAdam, UpdateWorkspace
from repro.drl.gae import discounted_returns_batch, generalized_advantages_batch
from repro.drl.policy import ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.errors import ConfigurationError, GradientError, NeuralNetworkError

SHAPES = [(3,), (4, 3), (4,), (1, 4), (1,)]


def make_params(seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in SHAPES]


def set_grads(params, rng):
    for parameter in params:
        parameter.grad = rng.normal(size=parameter.data.shape)


def twin_networks(seed=0, **kwargs):
    """A flat network and the oracle's graph network from one seed."""
    kwargs = {"obs_dim": 5, "hidden_sizes": (6, 4), **kwargs}
    return ActorCritic(seed=seed, **kwargs), GraphActorCritic(seed=seed, **kwargs)


def assert_same_state(flat, graph):
    flat_state, graph_state = flat.state_dict(), graph.state_dict()
    assert list(flat_state) == list(graph_state)
    for name, value in graph_state.items():
        np.testing.assert_array_equal(flat_state[name], value, err_msg=name)


def parameter_arrays(net):
    """The network's own parameter arrays, in ``state_dict`` order."""
    trunk = [array for layer in net.trunk for array in layer]
    return [net.log_std, *trunk, *net.actor_head, *net.critic_head]


def set_twin_grads(optimizer, graph, rng):
    """Write one random gradient set into both networks' gradients."""
    for view, parameter in zip(optimizer.grad_views, graph.parameters()):
        parameter.grad = rng.normal(size=parameter.data.shape)
        view[...] = parameter.grad


class TestFlatNetworkMatchesGraph:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"obs_dim": 12, "hidden_sizes": (64, 64)},
            {"hidden_sizes": (7,), "action_dim": 2, "initial_log_std": 0.3},
        ],
    )
    def test_initial_state_dict_bitwise(self, kwargs):
        """Same seeds, same ``orthogonal`` draws, same order: the flat
        network starts from the graph network's exact weights, for an int
        seed and for a generator seed alike."""
        assert_same_state(*twin_networks(seed=4, **kwargs))
        kwargs = {"obs_dim": 5, "hidden_sizes": (6, 4), **kwargs}
        assert_same_state(
            ActorCritic(seed=np.random.default_rng(9), **kwargs),
            GraphActorCritic(seed=np.random.default_rng(9), **kwargs),
        )


class TestFlatOptimizersBitwise:
    def _run_pair(self, *, steps=12, clip=None):
        flat, graph = twin_networks()
        ref_opt = Adam(list(graph.parameters()), learning_rate=0.01)
        flat_opt = FlatAdam(flat, learning_rate=0.01)
        for step in range(steps):
            set_twin_grads(flat_opt, graph, np.random.default_rng(100 + step))
            if clip is not None:
                ref_norm = clip_grad_norm(graph.parameters(), clip)
                ref_opt.step()
                assert flat_opt.step(clip) == ref_norm
            else:
                ref_opt.step()
                flat_opt.step(math.inf)
            assert_same_state(flat, graph)

    def test_flat_adam_matches_adam(self):
        self._run_pair()

    def test_flat_adam_matches_adam_with_clipping(self):
        self._run_pair(clip=0.5)

    def test_flat_adam_matches_adam_past_the_bias_correction(self):
        """From step ~350, ``1 - 0.9**t`` rounds to 1.0 and the flat step
        skips its division by it; the parameters must not notice."""
        flat, graph = twin_networks()
        ref_opt = Adam(list(graph.parameters()), learning_rate=0.01)
        flat_opt = FlatAdam(flat, learning_rate=0.01)
        rng = np.random.default_rng(100)
        for _ in range(400):
            set_twin_grads(flat_opt, graph, rng)
            assert flat_opt.step(0.5) == clip_grad_norm(graph.parameters(), 0.5)
            ref_opt.step()
        assert 1.0 - flat_opt.beta1**flat_opt.step_count == 1.0
        assert_same_state(flat, graph)

    def test_parameters_view_into_flat_buffer(self):
        net = ActorCritic(obs_dim=5, hidden_sizes=(6, 4), action_dim=3, seed=1)
        flat = net.flat_parameters
        base_addr = flat.__array_interface__["data"][0]
        offset = 0
        state = net.state_dict()
        views = parameter_arrays(net)
        assert len(views) == len(state) == len(net.segments)
        segments = zip(views, state.values(), net.segments)
        for view, value, (start, size, shape) in segments:
            assert (start, size, shape) == (offset, view.size, view.shape)
            np.testing.assert_array_equal(view.ravel(), flat[offset : offset + size])
            np.testing.assert_array_equal(view, value)
            assert view.base is flat
            assert view.flags.c_contiguous
            # segment starts keep standalone-allocation alignment (64-byte)
            view_addr = view.__array_interface__["data"][0]
            assert (view_addr - base_addr) % 64 == 0
            offset += -(-size // 8) * 8
        assert flat.size == offset
        assert sum(size for _, size, _ in net.segments) == sum(
            value.size for value in state.values()
        )

    def test_data_rebind_is_readopted(self):
        """A ``load_state_dict`` between steps (a data re-bind on the graph
        network) must land in the buffer the next flat step updates."""
        flat, graph = twin_networks(seed=2)
        ref_opt = Adam(list(graph.parameters()), learning_rate=0.01)
        flat_opt = FlatAdam(flat, learning_rate=0.01)
        rng = np.random.default_rng(7)
        replacement = {
            name: rng.normal(size=value.shape)
            for name, value in graph.state_dict().items()
        }
        graph.load_state_dict(replacement)
        flat.load_state_dict(replacement)
        set_twin_grads(flat_opt, graph, np.random.default_rng(8))
        ref_opt.step()
        flat_opt.step(math.inf)
        assert_same_state(flat, graph)
        for view in parameter_arrays(flat):
            assert view.base is flat.flat_parameters

    def test_step_count_advances_like_reference(self):
        """Adam's bias correction depends on the step counter."""
        flat, graph = twin_networks(seed=3)
        ref_opt = Adam(list(graph.parameters()), learning_rate=0.01)
        flat_opt = FlatAdam(flat, learning_rate=0.01)
        for seed in (1, 2, 3):
            set_twin_grads(flat_opt, graph, np.random.default_rng(seed))
            ref_opt.step()
            flat_opt.step(math.inf)
        assert ref_opt.step_count == flat_opt.step_count == 3
        assert_same_state(flat, graph)

    def test_validation(self):
        net = ActorCritic(obs_dim=4, hidden_sizes=(3,), seed=4)
        with pytest.raises(NeuralNetworkError):
            FlatAdam(net, learning_rate=-1.0)
        with pytest.raises(NeuralNetworkError):
            FlatAdam(net, learning_rate=float("nan"))
        with pytest.raises(NeuralNetworkError):
            FlatAdam(net, learning_rate=0.1, beta1=1.0)
        with pytest.raises(NeuralNetworkError):
            FlatAdam(net, learning_rate=0.1, epsilon=0.0)
        opt = FlatAdam(net, learning_rate=0.1)
        with pytest.raises(NeuralNetworkError):
            opt.step(0.0)


class TestGlobalGradNorm:
    def test_matches_python_reduction_bitwise(self):
        net = ActorCritic(obs_dim=5, hidden_sizes=(6, 4), seed=0)
        opt = FlatAdam(net, learning_rate=0.01)
        rng = np.random.default_rng(0)
        for view in opt.grad_views:
            view[...] = rng.normal(size=view.shape) * 10.0
        reference = math.sqrt(sum(float((g**2).sum()) for g in opt.grad_views))
        assert opt.grad_norm() == reference

    def test_clip_grad_norm_matches_historical_loop(self):
        rng = np.random.default_rng(1)
        params = make_params(seed=5)
        set_grads(params, rng)
        reference = make_params(seed=5)
        for parameter, source in zip(reference, params):
            parameter.grad = source.grad.copy()
        max_norm = 0.5
        # Historical implementation: per-parameter float round trip.
        total = math.sqrt(
            sum(float((p.grad**2).sum()) for p in reference if p.grad is not None)
        )
        if total > max_norm and total > 0.0:
            scale = max_norm / total
            for parameter in reference:
                parameter.grad *= scale
        norm = clip_grad_norm(params, max_norm)
        assert norm == total
        for parameter, expected in zip(params, reference):
            np.testing.assert_array_equal(parameter.grad, expected.grad)

    def test_small_norm_untouched(self):
        params = make_params(seed=6)
        for parameter in params:
            parameter.grad = np.zeros_like(parameter.data)
        params[0].grad = np.array([1e-3, 0.0, 0.0])
        before = [p.grad.copy() for p in params]
        clip_grad_norm(params, 10.0)
        for parameter, expected in zip(params, before):
            np.testing.assert_array_equal(parameter.grad, expected)


class TestBatchGae:
    @pytest.mark.parametrize("gamma,lam", [(0.0, 1.0), (0.9, 1.0), (0.99, 0.95)])
    def test_rows_match_scalar_recursion_bitwise(self, gamma, lam):
        rng = np.random.default_rng(0)
        num_envs, horizon = 5, 17
        rewards = rng.normal(size=(num_envs, horizon)) * 3.0
        values = rng.normal(size=(num_envs, horizon))
        bootstraps = rng.normal(size=num_envs)
        advantages = generalized_advantages_batch(
            rewards, values, gamma, lam, bootstrap_values=bootstraps
        )
        returns = discounted_returns_batch(
            rewards, gamma, bootstrap_values=bootstraps
        )
        for env in range(num_envs):
            np.testing.assert_array_equal(
                advantages[env],
                generalized_advantages(
                    rewards[env],
                    values[env],
                    gamma,
                    lam,
                    bootstrap_value=float(bootstraps[env]),
                ),
            )
            np.testing.assert_array_equal(
                returns[env],
                discounted_returns(
                    rewards[env], gamma, bootstrap_value=float(bootstraps[env])
                ),
            )

    def test_default_bootstraps_are_zeros(self):
        rng = np.random.default_rng(1)
        rewards = rng.normal(size=(3, 9))
        values = rng.normal(size=(3, 9))
        np.testing.assert_array_equal(
            generalized_advantages_batch(rewards, values, 0.9, 0.95),
            generalized_advantages_batch(
                rewards, values, 0.9, 0.95, bootstrap_values=np.zeros(3)
            ),
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            discounted_returns_batch(np.zeros(4), 0.9)
        with pytest.raises(ValueError):
            generalized_advantages_batch(np.zeros((2, 4)), np.zeros((2, 5)), 0.9, 1.0)
        with pytest.raises(ValueError):
            generalized_advantages_batch(
                np.zeros((2, 4)), np.zeros((2, 4)), 0.9, 1.0, bootstrap_values=np.zeros(3)
            )


class TestVectorRolloutStorage:
    def _fill(self, storage, buffers, rng, rounds):
        num_envs = storage.num_envs
        obs_dim = 4
        action_dim = 2
        for _ in range(rounds):
            observations = rng.normal(size=(num_envs, obs_dim))
            actions = rng.normal(size=(num_envs, action_dim))
            rewards = rng.normal(size=num_envs)
            log_probs = rng.normal(size=num_envs)
            values = rng.normal(size=num_envs)
            storage.add_round(observations, actions, rewards, log_probs, values)
            for env, buffer in enumerate(buffers):
                buffer.add(
                    observations[env],
                    actions[env],
                    float(rewards[env]),
                    float(log_probs[env]),
                    float(values[env]),
                )

    def test_pooled_matches_per_env_buffers_bitwise(self):
        num_envs, capacity = 3, 7
        storage = VectorRolloutStorage(
            num_envs, capacity, 4, 2, gamma=0.9, lam=0.95
        )
        buffers = [RolloutBuffer(gamma=0.9, lam=0.95) for _ in range(num_envs)]
        rng = np.random.default_rng(0)
        self._fill(storage, buffers, rng, capacity)
        bootstraps = rng.normal(size=num_envs)
        for env, buffer in enumerate(buffers):
            buffer.finalize(float(bootstraps[env]))
        pooled = storage.pooled(bootstraps)
        reference = concatenate_minibatches([b.stacked() for b in buffers])
        for name in ("observations", "actions", "old_log_probs", "advantages", "returns"):
            np.testing.assert_array_equal(
                getattr(pooled, name), getattr(reference, name), err_msg=name
            )

    def test_partial_fill_and_reuse(self):
        storage = VectorRolloutStorage(2, 5, 4, 2, gamma=0.0)
        buffers = [RolloutBuffer(gamma=0.0) for _ in range(2)]
        rng = np.random.default_rng(1)
        self._fill(storage, buffers, rng, 3)
        pooled = storage.pooled(np.zeros(2))
        assert pooled.observations.shape == (6, 4)
        storage.clear()
        assert len(storage) == 0
        fresh_buffers = [RolloutBuffer(gamma=0.0) for _ in range(2)]
        self._fill(storage, fresh_buffers, rng, 2)
        for buffer in fresh_buffers:
            buffer.finalize(0.0)
        pooled = storage.pooled(np.zeros(2))
        reference = concatenate_minibatches([b.stacked() for b in fresh_buffers])
        np.testing.assert_array_equal(pooled.observations, reference.observations)
        np.testing.assert_array_equal(pooled.advantages, reference.advantages)

    def test_capacity_overflow_rejected(self):
        storage = VectorRolloutStorage(2, 1, 4, 2, gamma=0.0)
        args = (np.zeros((2, 4)), np.zeros((2, 2)), np.zeros(2), np.zeros(2), np.zeros(2))
        storage.add_round(*args)
        with pytest.raises(ConfigurationError):
            storage.add_round(*args)

    def test_empty_pool_rejected(self):
        storage = VectorRolloutStorage(2, 3, 4, 2, gamma=0.0)
        with pytest.raises(ConfigurationError):
            storage.pooled(np.zeros(2))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            VectorRolloutStorage(0, 3, 4, 2, gamma=0.0)
        with pytest.raises(ConfigurationError):
            VectorRolloutStorage(2, 3, 4, 2, gamma=1.5)


def random_minibatch(rng, batch_size, obs_dim, action_dim):
    return MiniBatch(
        observations=rng.normal(size=(batch_size, obs_dim)),
        actions=rng.normal(size=(batch_size, action_dim)),
        old_log_probs=rng.normal(size=batch_size),
        advantages=rng.normal(size=batch_size) * 2.0,
        returns=rng.normal(size=batch_size),
    )


class TestFusedActorCritic:
    def test_ppo_agent_compiles_fused_by_default(self):
        net = ActorCritic(obs_dim=6, hidden_sizes=(16, 16), seed=0)
        agent = PPOAgent(net, PPOConfig(learning_rate=1e-3))
        assert isinstance(agent.optimizer, FlatAdam)
        # The optimiser steps the network's own buffer; every parameter
        # is a view into it.
        assert agent.optimizer.flat_grad.shape == net.flat_parameters.shape
        for view in parameter_arrays(net):
            assert view.base is net.flat_parameters

    def test_act_batch_bitwise(self):
        net, graph = twin_networks(obs_dim=5, hidden_sizes=(16, 16))
        rng = np.random.default_rng(0)
        observations = rng.normal(size=(7, 5))
        for deterministic in (False, True):
            expected = graph.act_batch(
                observations, seed=42, deterministic=deterministic
            )
            actual = net.act_batch(
                observations, seed=42, deterministic=deterministic
            )
            for a, b in zip(actual, expected):
                np.testing.assert_array_equal(a, b)

    def test_act_scalar_bitwise(self):
        fused_agent = PPOAgent(ActorCritic(obs_dim=5, seed=0), PPOConfig(learning_rate=1e-3))
        legacy_agent = ReferencePPOAgent(
            GraphActorCritic(obs_dim=5, seed=0), PPOConfig(learning_rate=1e-3)
        )
        observation = np.linspace(-1.0, 1.0, 5)
        raw_f, logp_f, value_f = fused_agent.act(observation, seed=3)
        raw_l, logp_l, value_l = legacy_agent.act(observation, seed=3)
        np.testing.assert_array_equal(raw_f, raw_l)
        assert logp_f == logp_l
        assert value_f == value_l

    def test_value_batch_bitwise(self):
        fused_agent = PPOAgent(ActorCritic(obs_dim=5, seed=0), PPOConfig(learning_rate=1e-3))
        legacy_agent = ReferencePPOAgent(
            GraphActorCritic(obs_dim=5, seed=0), PPOConfig(learning_rate=1e-3)
        )
        rng = np.random.default_rng(1)
        observations = rng.normal(size=(9, 5))
        np.testing.assert_array_equal(
            fused_agent.value_batch(observations),
            legacy_agent.value_batch(observations),
        )

    @pytest.mark.parametrize(
        "config",
        [
            PPOConfig(learning_rate=1e-3),
            PPOConfig(learning_rate=1e-3, entropy_coef=0.01),
            PPOConfig(learning_rate=1e-3, normalize_advantages=False),
            PPOConfig(learning_rate=1e-3, clip_epsilon=0.05, value_coef=1.0),
        ],
    )
    def test_update_bitwise(self, config):
        """The fused update must reproduce the autograd oracle exactly:
        identical stats and identical post-step parameters, step after step."""
        obs_dim, action_dim = 6, 1
        fused_agent = PPOAgent(
            ActorCritic(obs_dim=obs_dim, hidden_sizes=(16, 16), seed=0), config
        )
        legacy_agent = ReferencePPOAgent(
            GraphActorCritic(obs_dim=obs_dim, hidden_sizes=(16, 16), seed=0), config
        )
        rng = np.random.default_rng(0)
        for step in range(8):
            batch = random_minibatch(rng, 12, obs_dim, action_dim)
            fused_stats = fused_agent.update(batch)
            legacy_stats = legacy_agent.update(batch)
            assert fused_stats == legacy_stats, f"step {step}"
            assert_same_state(fused_agent.network, legacy_agent.network)

    def test_update_bitwise_with_two_action_dims(self):
        """The per-dim log-density terms are summed (not read off as the
        one-dim column) and the log-prob gradient is broadcast over both
        dims; stats and parameters still match the oracle exactly."""
        config = PPOConfig(learning_rate=1e-3, entropy_coef=0.01)
        kwargs = dict(obs_dim=6, hidden_sizes=(16, 16), action_dim=2, seed=0)
        fused_agent = PPOAgent(ActorCritic(**kwargs), config)
        legacy_agent = ReferencePPOAgent(GraphActorCritic(**kwargs), config)
        rng = np.random.default_rng(0)
        for step in range(8):
            batch = random_minibatch(rng, 12, 6, 2)
            assert fused_agent.update(batch) == legacy_agent.update(batch), step
            assert_same_state(fused_agent.network, legacy_agent.network)

    def test_branch_weight_table_is_the_mask_arithmetic(self):
        """The surrogate's per-row branch weights come from a lookup table;
        each entry must carry the bits, signed zeros included, of the
        reference's mask arithmetic for that row: smaller, tie, larger,
        and the NaN rows no comparison holds for."""
        rows = 6
        network = ActorCritic(obs_dim=3, hidden_sizes=(4,), seed=0)
        workspace = UpdateWorkspace(network, rows)
        unclipped = np.array([1.0, 2.0, 3.0, np.nan, 0.0, -1.0])
        clipped = np.array([2.0, 2.0, 1.0, 1.0, np.nan, -1.0])
        g_surr = -1.0 * (1.0 / rows)
        smaller, tie = unclipped < clipped, unclipped == clipped
        expected = (
            g_surr * (smaller + 0.5 * tie),
            g_surr * (~smaller & ~tie) + g_surr * 0.5 * tie,
        )
        case = (unclipped <= clipped).astype(np.uint8) + (unclipped < clipped)
        for branch, weights in enumerate(expected):
            looked_up = workspace.branch_weights[branch][case]
            assert looked_up.tobytes() == weights.tobytes(), branch

    def test_update_single_sample_batch(self):
        """size-1 batches skip advantage normalisation in both paths."""
        config = PPOConfig(learning_rate=1e-3)
        fused_agent = PPOAgent(ActorCritic(obs_dim=4, seed=0), config)
        legacy_agent = ReferencePPOAgent(GraphActorCritic(obs_dim=4, seed=0), config)
        rng = np.random.default_rng(2)
        batch = random_minibatch(rng, 1, 4, 1)
        assert fused_agent.update(batch) == legacy_agent.update(batch)

    def test_bad_observation_shape_rejected(self):
        net = ActorCritic(obs_dim=5, seed=0)
        with pytest.raises(ConfigurationError):
            net.value_batch(np.zeros((3, 4)))
        with pytest.raises(ConfigurationError):
            net.act_batch(np.zeros((3, 4)))


class TestNonFiniteUpdate:
    @pytest.mark.parametrize("field", ["advantages", "returns", "observations"])
    def test_poisoned_batch_is_refused_and_leaves_the_agent_intact(self, field):
        """A NaN anywhere in the batch makes the gradient norm NaN. The
        update must raise before the Adam step, so parameters, moments and
        the step counter are exactly as if the batch never arrived."""
        config = PPOConfig(learning_rate=1e-3)
        rng = np.random.default_rng(0)
        first, poisoned, last = (random_minibatch(rng, 20, 6, 1) for _ in range(3))
        getattr(poisoned, field).flat[7] = np.nan
        agent = PPOAgent(ActorCritic(obs_dim=6, hidden_sizes=(8, 8), seed=0), config)
        clean = PPOAgent(ActorCritic(obs_dim=6, hidden_sizes=(8, 8), seed=0), config)
        agent.update(first)
        clean.update(first)
        with pytest.raises(GradientError, match="non-finite"):
            agent.update(poisoned)
        assert agent.optimizer.step_count == 1
        for name, value in clean.network.state_dict().items():
            np.testing.assert_array_equal(agent.network.state_dict()[name], value)
        assert agent.update(last) == clean.update(last)
        np.testing.assert_array_equal(
            agent.network.flat_parameters, clean.network.flat_parameters
        )
        raws, log_probs, values = agent.act_batch(last.observations, seed=1)
        assert np.isfinite(raws).all() and np.isfinite(log_probs).all()
        assert np.isfinite(values).all()
