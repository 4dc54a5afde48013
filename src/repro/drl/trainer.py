"""Algorithm 1: the DRL training loop for VT migration pricing.

Faithful to the paper's pseudo-code: for each episode, reset the
environment and replay buffer; each round, the MSP observes ``o_k``, its
actor proposes a price, followers best-respond inside the environment, the
Eq.-12 reward is computed, and the transition is stored. Every ``I`` rounds
the agent performs ``M`` mini-batch updates sampled from the buffer.

There is one trainer, :class:`VectorTrainer`, which runs the loop over a
batch of envs stepped in lockstep (a one-env batch is the paper's scalar
loop). It stores rounds in :class:`VectorRolloutStorage`, computes GAE for
the whole batch at once, and drives the fused :class:`PPOAgent`.

Phase gather: an update phase draws its ``M`` mini-batch index sets first,
one ``choice`` per epoch in epoch order, and gathers them with one
``np.take`` per field (:func:`repro.drl.buffer.sample_minibatches`); epoch
``k`` trains on the ``k``-th row block of that gather. The draws and the
rows are those of ``M`` per-epoch samples, so only the RNG timing moves:
the stream is advanced by all ``M`` draws before the first update runs
(see the RNG contract on :class:`VectorTrainer`).

The scalar per-transition trainer, the per-epoch sampler and the autograd
agent the trainer is pinned against live in ``tests/training_oracle.py``
(the agent's graph network in ``tests/autograd_oracle.py``).

Returns a :class:`TrainingResult` with per-episode return and utility
traces — the series plotted in Fig. 2(a) and Fig. 2(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.drl.buffer import VectorRolloutStorage, sample_minibatches
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig, UpdateStats
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator

__all__ = ["TrainerConfig", "TrainingResult", "VectorTrainer", "train_pricing_agent"]


@dataclass(frozen=True)
class TrainerConfig:
    """Algorithm-1 knobs (paper defaults from Sec. V-A)."""

    num_episodes: int = 500
    update_interval: int = 20
    """Rounds between updates, ``I`` (Algorithm 1 line 10)."""
    update_epochs: int = 10
    """Mini-batch updates per trigger, ``M`` (line 11)."""
    batch_size: int = 20
    """Mini-batch size ``|I|`` (line 12)."""
    gamma: float = 0.99
    gae_lambda: float = 1.0
    """λ = 1 reproduces the paper's Eq. (18) advantage exactly."""

    def __post_init__(self) -> None:
        for name in ("num_episodes", "update_interval", "update_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigurationError("gamma and gae_lambda must be in [0, 1]")


@dataclass
class TrainingResult:
    """Per-episode training traces.

    Attributes:
        episode_returns: Σ rewards per episode — Fig. 2(a)'s series.
        episode_best_utilities: episode-end ``U_best`` — Fig. 2(b)'s series.
        episode_mean_utilities: mean per-round MSP utility per episode.
        episode_final_prices: deterministic (mode) price after each episode.
        update_stats: diagnostics of every gradient step.
    """

    episode_returns: list[float] = field(default_factory=list)
    episode_best_utilities: list[float] = field(default_factory=list)
    episode_mean_utilities: list[float] = field(default_factory=list)
    episode_final_prices: list[float] = field(default_factory=list)
    update_stats: list[UpdateStats] = field(default_factory=list)

    @property
    def num_episodes(self) -> int:
        """Episodes trained."""
        return len(self.episode_returns)

    def tail_mean_best_utility(self, fraction: float = 0.1) -> float:
        """Mean episode-best utility over the last ``fraction`` of training
        (the converged value compared against the Stackelberg optimum)."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(len(self.episode_best_utilities) * fraction))
        return float(np.mean(self.episode_best_utilities[-count:]))


class VectorTrainer:
    """Algorithm 1 over a batch of envs stepped in lockstep.

    One iteration of the outer loop collects ``E`` episodes concurrently
    from a :class:`repro.env.VectorMigrationEnv` (or anything exposing
    ``num_envs`` plus batched ``reset``/``step``): the actor-critic forward
    pass, the reward bookkeeping, and the bootstrap values all run on the
    ``(E, ·)`` batch axis, while each env keeps its private RNG stream.
    Rounds land in one :class:`VectorRolloutStorage`, whose rows keep the
    per-env trajectories apart so GAE sees per-episode segments. At update
    time the ``E`` segments are pooled into one sampling population.

    The envs need not share a market: a *heterogeneous* fleet (one env per
    market, built with ``VectorMigrationEnv.from_markets``) trains **one**
    policy across all markets — each iteration's pooled update mixes every
    market's transitions, and the env batch still solves its whole market
    stack in one vectorised pass per round. The action scaler spans the
    fleet's price envelope; each env clamps to its own ``[C, p_max]``.
    Per-round infos arrive as ``(E,)`` arrays and are consumed whole; each
    env's mean utility reduces its own contiguous ``(K,)`` row, so the
    traces match ``E`` scalar runs bit for bit.

    RNG contract: the trainer's own stream is consumed in a fixed order —
    one Gaussian noise block per round, then at each update phase one
    ``choice`` per PPO epoch — so an ``E = 1`` run is bit-compatible with
    the paper's scalar loop on the same seeds (pinned against the scalar
    oracle trainer in the tests). A phase makes all ``M`` draws before its
    first update, so a :class:`~repro.errors.GradientError` raised in epoch
    ``k`` leaves the stream advanced by all ``M`` draws, not ``k + 1``.

    The agent is anything with the :class:`PPOAgent` surface (``network``,
    ``act_batch``, ``value_batch``, ``update``); the test suite plugs in
    an autograd reference agent. The result traces carry ``E`` entries per
    outer iteration, appended in env order, so
    ``TrainingResult.num_episodes`` counts *episodes*, not iterations.
    """

    def __init__(
        self,
        venv,
        agent: PPOAgent,
        scaler: ActionScaler,
        config: TrainerConfig | None = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        if getattr(venv, "num_envs", 0) < 1:
            raise ConfigurationError(
                "VectorTrainer needs a vector env exposing num_envs >= 1"
            )
        self.venv = venv
        self.agent = agent
        self.scaler = scaler
        self.config = config if config is not None else TrainerConfig()
        self._rng = as_generator(seed)
        # Reused — never reallocated — across segments and iterations.
        self._storage = VectorRolloutStorage(
            venv.num_envs,
            self.config.update_interval,
            agent.network.obs_dim,
            agent.network.action_dim,
            gamma=self.config.gamma,
            lam=self.config.gae_lambda,
        )

    def _update(self, bootstrap_values: np.ndarray) -> None:
        cfg = self.config
        batches = sample_minibatches(
            self._storage.pooled(bootstrap_values),
            cfg.batch_size,
            cfg.update_epochs,
            seed=self._rng,
        )
        update, stats = self.agent.update, self.result.update_stats
        for batch in batches:
            stats.append(update(batch))
        self._storage.clear()

    def train(self) -> TrainingResult:
        """Run the batched Algorithm-1 loop; returns the training traces."""
        cfg = self.config
        num_envs = self.venv.num_envs
        self.result = TrainingResult()
        # The per-round calls, looked up once per training.
        act, to_price = self.agent.act_batch, self.scaler.to_price
        step, add_round = self.venv.step, self._storage.add_round
        rng = self._rng
        for _iteration in range(cfg.num_episodes):
            observations = self.venv.reset()
            self._storage.clear()
            episode_returns = np.zeros(num_envs)
            utilities: list[np.ndarray] = []
            best_utilities = np.full(num_envs, float("-inf"))
            done = False
            round_index = 0
            while not done:
                raws, log_probs, values = act(observations, seed=rng)
                next_observations, rewards, dones, infos = step(to_price(raws[:, 0]))
                add_round(observations, raws, rewards, log_probs, values)
                utilities.append(infos["msp_utility"])
                episode_returns += rewards
                np.maximum(best_utilities, infos["best_utility"], out=best_utilities)
                observations = next_observations
                round_index += 1
                done = np.count_nonzero(dones) == num_envs
                # Algorithm 1 line 10: update every I rounds (and flush at
                # episode end so no transition is wasted).
                if round_index % cfg.update_interval == 0 or done:
                    bootstraps = (
                        np.zeros(num_envs)
                        if done
                        else self.agent.value_batch(observations)
                    )
                    self._update(bootstraps)
            # One contiguous (K,) row per env, so each mean reduces exactly
            # like the scalar loop's np.mean over that env's utilities.
            mean_utilities = np.stack(utilities, axis=1).mean(axis=1)
            self.result.episode_returns.extend(episode_returns.tolist())
            self.result.episode_best_utilities.extend(best_utilities.tolist())
            self.result.episode_mean_utilities.extend(mean_utilities.tolist())
            self.result.episode_final_prices.extend(self.evaluate_prices())
        return self.result

    def evaluate_prices(self) -> list[float]:
        """Deterministic (distribution-mode) prices at the current
        parameters, one per env, evaluated on fresh observations."""
        observations = self.venv.reset()
        raws, _, _ = self.agent.act_batch(
            observations, seed=self._rng, deterministic=True
        )
        return [float(p) for p in self.scaler.to_price(raws[:, 0])]


def train_pricing_agent(
    env,
    *,
    trainer_config: TrainerConfig | None = None,
    ppo_config: PPOConfig | None = None,
    hidden_sizes: tuple[int, ...] = (64, 64),
    seed: SeedLike = None,
) -> tuple[PPOAgent, TrainingResult, ActionScaler]:
    """Convenience constructor + training run for the pricing POMDP.

    Builds the shared-trunk actor-critic sized to ``env``, trains it with
    Algorithm 1 through :class:`VectorTrainer`, and returns
    ``(agent, result, scaler)``. ``env`` must be a vector env (anything
    exposing ``num_envs``, e.g. :class:`repro.env.VectorMigrationEnv`);
    wrap a single market as ``VectorMigrationEnv.from_market(market, 1)``.
    A scalar env raises :class:`ConfigurationError`.
    """
    rng = as_generator(seed)
    network = ActorCritic(env.observation_dim, hidden_sizes, seed=rng)
    agent = PPOAgent(network, ppo_config)
    scaler = ActionScaler(low=env.action_low, high=env.action_high)
    result = VectorTrainer(env, agent, scaler, trainer_config, seed=rng).train()
    return agent, result, scaler
