"""Reference training implementations, kept only as bitwise test oracles.

Production training has one path: :class:`repro.drl.trainer.VectorTrainer`
storing rounds in :class:`repro.drl.buffer.VectorRolloutStorage`, batch
GAE, and the fused :class:`repro.drl.ppo.PPOAgent` over ``FlatAdam``. The
straightforward implementations it replaced live here, so tests (and the
training benchmark) can pin the fast path against them bit for bit:

- scalar per-trajectory GAE: :func:`discounted_returns`,
  :func:`generalized_advantages` and the paper's Eq. (18)
  :func:`paper_advantages`;
- the per-transition :class:`RolloutBuffer`,
  :func:`concatenate_minibatches` and the per-epoch
  :func:`sample_minibatch` (one ``choice`` and one gather per epoch, which
  ``repro.drl.buffer.sample_minibatches`` does for a whole phase);
- :class:`ReferencePPOAgent`: graph act/value and the autograd PPO update
  over per-parameter ``Adam``, all from ``tests/autograd_oracle.py``'s
  :class:`GraphActorCritic`. It has the ``PPOAgent`` surface, so it plugs
  into the production ``VectorTrainer``;
- the scalar Algorithm-1 :class:`Trainer` over a single env, and
  :class:`PerEpochVectorTrainer`, the production trainer with the
  per-epoch sampling its phase gather replaced;
- :class:`MigrationGameEnv`, the scalar Sec. IV-A POMDP (a history deque,
  one ``round_outcome`` solve per step, one info dict per round) that the
  array-native :class:`repro.env.VectorMigrationEnv` is pinned against.

``setup.cfg`` puts ``tests/`` on pytest's ``pythonpath``, so test modules
and ``benchmarks/`` import this module as ``training_oracle``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np
from autograd_oracle import Adam, GraphActorCritic, Tensor, clip_grad_norm, no_grad

from repro.core.stackelberg import StackelbergMarket
from repro.drl.buffer import MiniBatch
from repro.drl.policy import ActionScaler
from repro.drl.ppo import PPOConfig, UpdateStats
from repro.drl.trainer import TrainerConfig, TrainingResult, VectorTrainer
from repro.errors import ConfigurationError, EnvironmentError_
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_in_range

# --------------------------------------------------------------------- #
# scalar GAE
# --------------------------------------------------------------------- #


def discounted_returns(rewards, gamma: float, *, bootstrap_value: float = 0.0):
    """Per-step discounted return-to-go ``V^targ_k`` (Eq. 16's target).

    ``G_k = Σ_{l=k}^{K-1} γ^{l-k} r_l + γ^{K-k} V(S_K)`` with
    ``bootstrap_value`` standing in for ``V(S_K)``.
    """
    require_in_range("gamma", gamma, 0.0, 1.0)
    rewards = np.asarray(rewards, dtype=np.float64)
    returns = np.empty_like(rewards)
    running = float(bootstrap_value)
    for k in range(len(rewards) - 1, -1, -1):
        running = rewards[k] + gamma * running
        returns[k] = running
    return returns


def _aligned(rewards, values):
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ValueError(
            f"rewards and values must align, got {rewards.shape} vs {values.shape}"
        )
    return rewards, values


def paper_advantages(rewards, values, gamma: float, *, bootstrap_value: float = 0.0):
    """The paper's Eq. (18): ``A(S_k) = -V(S_k) + G_k``."""
    rewards, values = _aligned(rewards, values)
    returns = discounted_returns(rewards, gamma, bootstrap_value=bootstrap_value)
    return returns - values


def generalized_advantages(
    rewards, values, gamma: float, lam: float, *, bootstrap_value: float = 0.0
):
    """GAE(λ) over one trajectory: ``A_k = Σ_{l≥k} (γλ)^{l-k} δ_l`` with
    ``δ_l = r_l + γ V(S_{l+1}) − V(S_l)``."""
    require_in_range("gamma", gamma, 0.0, 1.0)
    require_in_range("lam", lam, 0.0, 1.0)
    rewards, values = _aligned(rewards, values)
    next_values = np.append(values[1:], bootstrap_value)
    deltas = rewards + gamma * next_values - values
    advantages = np.empty_like(deltas)
    running = 0.0
    for k in range(len(deltas) - 1, -1, -1):
        running = deltas[k] + gamma * lam * running
        advantages[k] = running
    return advantages


# --------------------------------------------------------------------- #
# per-transition rollout buffer
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Transition:
    """One stored step of the POMDP."""

    observation: np.ndarray
    action: np.ndarray
    reward: float
    log_prob: float
    value: float


class RolloutBuffer:
    """Accumulates one rollout segment, then serves mini-batches.

    Lifecycle: ``add`` × K → ``finalize(bootstrap_value)`` →
    ``stacked`` / ``minibatches`` / ``sample`` → ``clear``.
    """

    def __init__(self, *, gamma: float, lam: float = 1.0) -> None:
        if not 0.0 <= gamma <= 1.0 or not 0.0 <= lam <= 1.0:
            raise ConfigurationError(
                f"gamma and lam must be in [0, 1], got {gamma}, {lam}"
            )
        self._gamma = gamma
        self._lam = lam
        self._transitions: list[Transition] = []
        self._advantages: np.ndarray | None = None
        self._returns: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._transitions)

    @property
    def finalized(self) -> bool:
        """Whether advantages/returns have been computed."""
        return self._advantages is not None

    def add(self, observation, action, reward, log_prob, value) -> None:
        """Store one transition (must precede :meth:`finalize`)."""
        if self.finalized:
            raise ConfigurationError("buffer already finalized; clear() first")
        self._transitions.append(
            Transition(
                observation=np.asarray(observation, dtype=np.float64).copy(),
                action=np.asarray(action, dtype=np.float64).copy(),
                reward=float(reward),
                log_prob=float(log_prob),
                value=float(value),
            )
        )

    def finalize(self, bootstrap_value: float = 0.0) -> None:
        """Compute advantages (GAE) and value targets for the segment."""
        if not self._transitions:
            raise ConfigurationError("cannot finalize an empty buffer")
        rewards = np.array([t.reward for t in self._transitions])
        values = np.array([t.value for t in self._transitions])
        self._advantages = generalized_advantages(
            rewards, values, self._gamma, self._lam, bootstrap_value=bootstrap_value
        )
        self._returns = discounted_returns(
            rewards, self._gamma, bootstrap_value=bootstrap_value
        )

    def clear(self) -> None:
        """Drop all stored data (start of a new segment)."""
        self._transitions.clear()
        self._advantages = None
        self._returns = None

    def stacked(self) -> MiniBatch:
        """The whole finalized segment as one stacked :class:`MiniBatch`."""
        if not self.finalized:
            raise ConfigurationError("finalize() before sampling")
        return MiniBatch(
            observations=np.stack([t.observation for t in self._transitions]),
            actions=np.stack([t.action for t in self._transitions]),
            old_log_probs=np.array([t.log_prob for t in self._transitions]),
            advantages=self._advantages.copy(),
            returns=self._returns.copy(),
        )

    def sample(self, batch_size: int, seed: SeedLike = None) -> MiniBatch:
        """One random mini-batch of ``batch_size`` (with replacement if the
        buffer is smaller) — Algorithm 1, line 12."""
        return sample_minibatch(self.stacked(), batch_size, seed=seed)

    def minibatches(self, batch_size: int, seed: SeedLike = None) -> list[MiniBatch]:
        """Shuffle the segment and split it into consecutive mini-batches
        that cover every sample once."""
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        full = self.stacked()
        count = len(self._transitions)
        order = as_generator(seed).permutation(count)
        batches = []
        for start in range(0, count, batch_size):
            idx = order[start : start + batch_size]
            batches.append(
                MiniBatch(
                    observations=full.observations[idx],
                    actions=full.actions[idx],
                    old_log_probs=full.old_log_probs[idx],
                    advantages=full.advantages[idx],
                    returns=full.returns[idx],
                )
            )
        return batches


def sample_minibatch(
    full: MiniBatch, batch_size: int, seed: SeedLike = None
) -> MiniBatch:
    """Draw one random mini-batch from a stacked segment (Algorithm 1, line 12).

    Sampling is uniform over the population, with replacement only when the
    population is smaller than ``batch_size``; one ``choice`` call per
    mini-batch, so the per-epoch trainers consume their RNG stream exactly
    like the production phase sampler.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    rng = as_generator(seed)
    count = len(full.observations)
    replace = batch_size > count
    idx = rng.choice(count, size=batch_size, replace=replace)
    return MiniBatch(
        observations=full.observations[idx],
        actions=full.actions[idx],
        old_log_probs=full.old_log_probs[idx],
        advantages=full.advantages[idx],
        returns=full.returns[idx],
    )


def concatenate_minibatches(batches: list[MiniBatch]) -> MiniBatch:
    """Pool stacked segments along the batch axis, in list order."""
    if not batches:
        raise ConfigurationError("need at least one mini-batch to concatenate")
    if len(batches) == 1:
        return batches[0]
    return MiniBatch(
        observations=np.concatenate([b.observations for b in batches]),
        actions=np.concatenate([b.actions for b in batches]),
        old_log_probs=np.concatenate([b.old_log_probs for b in batches]),
        advantages=np.concatenate([b.advantages for b in batches]),
        returns=np.concatenate([b.returns for b in batches]),
    )


# --------------------------------------------------------------------- #
# autograd PPO agent
# --------------------------------------------------------------------- #


class ReferencePPOAgent:
    """PPO through the autograd graph with per-parameter ``Adam``.

    Same surface as :class:`repro.drl.ppo.PPOAgent` (``network``,
    ``config``, ``optimizer``, ``act``, ``act_batch``, ``value``,
    ``value_batch``, ``update``), so either agent plugs into
    ``VectorTrainer`` or the scalar :class:`Trainer`.
    """

    def __init__(
        self, network: GraphActorCritic, config: PPOConfig | None = None
    ) -> None:
        self.network = network
        self.config = config if config is not None else PPOConfig()
        self.optimizer = Adam(
            list(network.parameters()), learning_rate=self.config.learning_rate
        )

    def act(self, observation, *, seed: SeedLike = None, deterministic: bool = False):
        return self.network.act(observation, seed=seed, deterministic=deterministic)

    def act_batch(
        self, observations, *, seed: SeedLike = None, deterministic: bool = False
    ):
        return self.network.act_batch(
            observations, seed=seed, deterministic=deterministic
        )

    def value(self, observation) -> float:
        obs = np.asarray(observation, dtype=np.float64).reshape(1, -1)
        return float(self.value_batch(obs)[0])

    def value_batch(self, observations):
        obs = np.asarray(observations, dtype=np.float64)
        with no_grad():
            return self.network.value(Tensor(obs)).data.copy()

    def update(self, batch: MiniBatch) -> UpdateStats:
        """One gradient step on a mini-batch (Eq. 14) through the graph."""
        cfg = self.config
        advantages = batch.advantages.astype(np.float64)
        if cfg.normalize_advantages and advantages.size > 1:
            std = advantages.std()
            advantages = (advantages - advantages.mean()) / (std + 1e-8)

        self.optimizer.zero_grad()
        dist, values = self.network.evaluate(Tensor(batch.observations))
        log_probs = dist.log_prob(batch.actions)
        ratio = (log_probs - Tensor(batch.old_log_probs)).exp()  # Eq. (17)
        adv = Tensor(advantages)
        unclipped = ratio * adv
        clipped = ratio.clamp(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * adv
        policy_objective = unclipped.minimum(clipped).mean()  # Eq. (15)
        value_loss = ((values - Tensor(batch.returns)) ** 2.0).mean()  # Eq. (16)
        entropy = dist.entropy().mean()
        # Maximise objective == minimise negative loss (Eq. 14).
        loss = (
            -policy_objective
            + cfg.value_coef * value_loss
            - cfg.entropy_coef * entropy
        )
        loss.backward()
        grad_norm = clip_grad_norm(self.optimizer.parameters, cfg.max_grad_norm)
        self.optimizer.step()

        clip_fraction = float(np.mean(np.abs(ratio.data - 1.0) > cfg.clip_epsilon))
        approx_kl = float(np.mean(batch.old_log_probs - log_probs.data))
        return UpdateStats(
            policy_loss=float(-policy_objective.item()),
            value_loss=float(value_loss.item()),
            entropy=float(entropy.item()),
            clip_fraction=clip_fraction,
            approx_kl=approx_kl,
            grad_norm=float(grad_norm),
        )


# --------------------------------------------------------------------- #
# scalar Algorithm-1 trainer
# --------------------------------------------------------------------- #


class Trainer:
    """Algorithm 1 over one env, one transition at a time.

    Consumes its RNG stream in the same order as ``VectorTrainer`` (one
    Gaussian block per round, one ``choice`` per PPO epoch), so an
    ``E = 1`` vector run must reproduce it bit for bit.
    """

    def __init__(
        self,
        env,
        agent,
        scaler: ActionScaler,
        config: TrainerConfig | None = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        self.env = env
        self.agent = agent
        self.scaler = scaler
        self.config = config if config is not None else TrainerConfig()
        self._rng = as_generator(seed)
        self.buffer = RolloutBuffer(gamma=self.config.gamma, lam=self.config.gae_lambda)

    def _update_from_buffer(self, bootstrap_value: float) -> None:
        cfg = self.config
        self.buffer.finalize(bootstrap_value)
        for _ in range(cfg.update_epochs):
            batch = self.buffer.sample(cfg.batch_size, seed=self._rng)
            self.result.update_stats.append(self.agent.update(batch))
        self.buffer.clear()

    def train(self) -> TrainingResult:
        cfg = self.config
        self.result = TrainingResult()
        for _episode in range(cfg.num_episodes):
            observation = self.env.reset()
            self.buffer.clear()
            episode_return = 0.0
            utilities: list[float] = []
            best_utility = float("-inf")
            done = False
            round_index = 0
            while not done:
                raw_action, log_prob, value = self.agent.act(
                    observation, seed=self._rng
                )
                price = float(self.scaler.to_price(raw_action[0]))
                next_observation, reward, done, info = self.env.step(price)
                self.buffer.add(observation, raw_action, reward, log_prob, value)
                episode_return += reward
                utilities.append(float(info["msp_utility"]))
                best_utility = max(best_utility, float(info["best_utility"]))
                observation = next_observation
                round_index += 1
                if round_index % cfg.update_interval == 0 or done:
                    bootstrap = 0.0 if done else self.agent.value(observation)
                    self._update_from_buffer(bootstrap)
            self.result.episode_returns.append(episode_return)
            self.result.episode_best_utilities.append(best_utility)
            self.result.episode_mean_utilities.append(float(np.mean(utilities)))
            self.result.episode_final_prices.append(self.evaluate_price())
        return self.result

    def evaluate_price(self) -> float:
        """The deterministic (mode) price on a fresh observation."""
        observation = self.env.reset()
        raw_action, _, _ = self.agent.act(
            observation, seed=self._rng, deterministic=True
        )
        return float(self.scaler.to_price(raw_action[0]))


class PerEpochVectorTrainer(VectorTrainer):
    """``VectorTrainer`` sampling each PPO epoch right before its update.

    One ``choice`` and one gather per epoch (:func:`sample_minibatch`), the
    form the production phase gather replaced: the same draws in the same
    order, so a production run must reproduce it bit for bit.
    """

    def _update(self, bootstrap_values) -> None:
        cfg = self.config
        pool = self._storage.pooled(bootstrap_values)
        for _ in range(cfg.update_epochs):
            batch = sample_minibatch(pool, cfg.batch_size, seed=self._rng)
            self.result.update_stats.append(self.agent.update(batch))
        self._storage.clear()


def train_reference(
    env,
    *,
    trainer_config: TrainerConfig | None = None,
    ppo_config: PPOConfig | None = None,
    hidden_sizes: tuple[int, ...] = (64, 64),
    seed: SeedLike = None,
):
    """``train_pricing_agent`` with a :class:`ReferencePPOAgent`.

    Builds the graph network and scaler exactly as the production entry
    point builds its network (same seed stream, same draw order). A vector
    env (anything with ``num_envs``) trains through
    :class:`PerEpochVectorTrainer`; a scalar env trains through the oracle
    :class:`Trainer`. Returns ``(agent, result, scaler)``.
    """
    rng = as_generator(seed)
    network = GraphActorCritic(env.observation_dim, hidden_sizes, seed=rng)
    agent = ReferencePPOAgent(network, ppo_config)
    scaler = ActionScaler(low=env.action_low, high=env.action_high)
    trainer_cls = PerEpochVectorTrainer if hasattr(env, "num_envs") else Trainer
    result = trainer_cls(env, agent, scaler, trainer_config, seed=rng).train()
    return agent, result, scaler


# --------------------------------------------------------------------- #
# scalar POMDP
# --------------------------------------------------------------------- #


class MigrationGameEnv:
    """The Sec. IV-A pricing POMDP over one market, one round at a time.

    Observation: the last ``L`` (price / p_max, allocations / B_max)
    entries, primed at reset by ``L`` random prices drawn in one
    ``uniform(size=L)`` call and solved with ``outcomes_batch``. Each step
    clamps the action to ``[C, p_max]``, plays ``round_outcome`` and
    applies the Eq. (12) reward (``"paper"``, with a tolerance relative to
    the utility scale) or the scaled utility (``"utility"``).
    """

    def __init__(
        self,
        market: StackelbergMarket,
        *,
        history_length: int = 4,
        rounds_per_episode: int = 100,
        reward_mode: str = "paper",
        reward_tolerance: float = 1e-3,
        seed: SeedLike = None,
    ) -> None:
        if history_length < 1 or rounds_per_episode < 1:
            raise EnvironmentError_("history_length and rounds_per_episode must be >= 1")
        if reward_mode not in ("paper", "utility") or reward_tolerance < 0.0:
            raise EnvironmentError_("bad reward_mode or reward_tolerance")
        self.market = market
        self.history_length = history_length
        self.rounds_per_episode = rounds_per_episode
        self.reward_mode = reward_mode
        self.reward_tolerance = float(reward_tolerance)
        self._rng = as_generator(seed)
        self._history: deque[np.ndarray] = deque(maxlen=history_length)
        self._round = 0
        self._best_utility = float("-inf")
        self._started = False
        config = market.config
        self._utility_scale = (
            (config.max_price - config.unit_cost) * config.capacity_natural
        )

    @property
    def observation_dim(self) -> int:
        return self.history_length * (1 + self.market.num_vmus)

    @property
    def action_low(self) -> float:
        return self.market.config.unit_cost

    @property
    def action_high(self) -> float:
        return self.market.config.max_price

    @property
    def round_index(self) -> int:
        return self._round

    @property
    def best_utility(self) -> float:
        return self._best_utility

    def _entry(self, price: float, allocations: np.ndarray) -> np.ndarray:
        config = self.market.config
        return np.concatenate(
            ([price / config.max_price], allocations / config.capacity_natural)
        )

    def reset(self) -> np.ndarray:
        config = self.market.config
        prices = self._rng.uniform(
            config.unit_cost, config.max_price, size=self.history_length
        )
        self._history.clear()
        solved = self.market.outcomes_batch(prices)
        for price, allocations in zip(prices, solved.allocations):
            self._history.append(self._entry(float(price), allocations))
        self._round = 0
        self._best_utility = float("-inf")
        self._started = True
        return np.concatenate(list(self._history))

    def step(self, action: float) -> tuple[np.ndarray, float, bool, dict[str, Any]]:
        if not self._started:
            raise EnvironmentError_("call reset() before step()")
        if self._round >= self.rounds_per_episode:
            raise EnvironmentError_(
                "episode already finished; call reset() to start a new one"
            )
        price = float(np.clip(action, self.action_low, self.action_high))
        outcome = self.market.round_outcome(price)
        utility = outcome.msp_utility
        if self.reward_mode == "paper":
            slack = self.reward_tolerance * self._utility_scale
            reward = 1.0 if utility >= self._best_utility - slack else 0.0
        else:
            reward = utility / self._utility_scale
        if utility >= self._best_utility:
            self._best_utility = utility
        self._history.append(self._entry(price, outcome.allocations))
        self._round += 1
        info: dict[str, Any] = {
            "price": price,
            "raw_action": float(action),
            "msp_utility": utility,
            "best_utility": self._best_utility,
            "demands": outcome.demands.copy(),
            "allocations": outcome.allocations.copy(),
            "vmu_utilities": outcome.vmu_utilities.copy(),
            "capacity_binding": outcome.capacity_binding,
            "round": self._round,
        }
        done = self._round >= self.rounds_per_episode
        return np.concatenate(list(self._history)), reward, done, info
