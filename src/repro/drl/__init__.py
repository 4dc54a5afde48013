"""DRL substrate: rollout storage, GAE, PPO, and the Algorithm-1 trainer."""

from repro.drl.buffer import MiniBatch, VectorRolloutStorage, sample_minibatches
from repro.drl.checkpoints import load_agent, save_agent
from repro.drl.gae import discounted_returns_batch, generalized_advantages_batch
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig, UpdateStats
from repro.drl.trainer import (
    TrainerConfig,
    TrainingResult,
    VectorTrainer,
    train_pricing_agent,
)

__all__ = [
    "load_agent",
    "save_agent",
    "MiniBatch",
    "VectorRolloutStorage",
    "sample_minibatches",
    "discounted_returns_batch",
    "generalized_advantages_batch",
    "ActionScaler",
    "ActorCritic",
    "PPOAgent",
    "PPOConfig",
    "UpdateStats",
    "TrainerConfig",
    "TrainingResult",
    "VectorTrainer",
    "train_pricing_agent",
]
