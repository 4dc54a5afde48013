"""Shared machinery for the per-figure experiments.

``train_drl`` builds the POMDP env + PPO agent for a market and runs
Algorithm 1; ``evaluate_policies_stacked`` plays pricing policies for a
fixed number of rounds and summarises each market's outcome;
``compare_schemes_stacked`` produces the DRL / random / greedy /
equilibrium comparison the paper's Fig. 3 panels report. Both take a
market sequence, and a single market is their ``M = 1`` case.

The experiment specs reach this module through its job kinds and their
plan/assemble halves: ``training_run`` (:func:`run_training_job`, one
DRL training — Fig. 2 and the ablations) and ``market_scheme``
(:func:`run_market_scheme_job`, one history-dependent scheme on one
market). :func:`plan_scheme_jobs` emits the latter for a Fig. 3 market
grid and :func:`assemble_scheme_results` merges them, evaluating the
price-committing schemes (``random``, ``equilibrium``) as one stacked
solve over the whole grid (:func:`compare_schemes_stacked`).

Everything routes through the batched simulation engine
(:mod:`repro.sim`): training collects ``config.num_envs`` episodes
concurrently through a :class:`VectorMigrationEnv` (``num_envs = 1`` is
bit-compatible with a scalar single-env run on the same seed), and policy
evaluation plays price vectors through one batched market solve whenever
the policy can commit to them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

from repro.baselines import GreedyPricing, LearnedPricing, OraclePricing, RandomPricing
from repro.core.mechanism import PricingPolicy
from repro.core.stackelberg import PriceBatchOutcome, StackelbergMarket
from repro.drl.checkpoints import save_agent
from repro.drl.ppo import PPOConfig
from repro.drl.trainer import TrainerConfig, TrainingResult, train_pricing_agent
from repro.env.vector import VectorMigrationEnv
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scheduler import (
    ARTIFACT_DIR_KEY,
    Job,
    config_from_payload,
    config_to_payload,
    market_from_payload,
    market_to_payload,
    solve_job,
)
from repro.sim.engine import play_policies_stacked

__all__ = [
    "PolicyEvaluation",
    "TrainedPricing",
    "train_drl",
    "evaluate_policies_stacked",
    "evaluation_to_payload",
    "evaluation_from_payload",
    "compare_schemes_stacked",
    "validate_schemes",
    "plan_scheme_jobs",
    "assemble_scheme_results",
    "run_market_scheme_job",
    "run_training_job",
]

_KNOWN_SCHEMES = ("drl", "greedy", "random", "equilibrium")
# Schemes that commit to their price vector up front; they evaluate as one
# stacked solve over the whole market grid instead of per-market jobs.
_PLANNABLE_SCHEMES = ("random", "equilibrium")


@dataclass(frozen=True)
class PolicyEvaluation:
    """Summary of a policy played for ``rounds`` against a market.

    ``best_*`` fields describe the single best round a scheme found;
    ``mean_*`` fields are per-round averages. The figure tables report the
    means (that is where the DRL-vs-baseline gap the paper shows lives —
    the *best* of many uniform draws is trivially near-optimal), and keep
    the best-round values for reference.
    """

    mean_price: float
    best_price: float
    mean_msp_utility: float
    best_msp_utility: float
    total_bandwidth_market: float
    """Σ b at the best round, in the paper's reported (market) units."""
    total_vmu_utility: float
    """Σ U_n at the best round."""
    mean_vmu_utility: float
    """Average per-VMU utility at the best round."""
    mean_total_bandwidth_market: float
    """Per-round mean of Σ b (market units)."""
    mean_total_vmu_utility: float
    """Per-round mean of Σ U_n."""
    mean_avg_vmu_utility: float
    """Per-round mean of the average per-VMU utility."""


@dataclass
class TrainedPricing:
    """A trained DRL pricing solution for one market."""

    policy: LearnedPricing
    training: TrainingResult


def train_drl(
    market: StackelbergMarket, config: ExperimentConfig
) -> TrainedPricing:
    """Train the PPO pricing agent on ``market`` per ``config``.

    Training runs through the batched engine: ``config.num_envs`` member
    envs (env 0 on ``config.seed``, the rest on independent child streams)
    are stepped in lockstep and their episodes collected concurrently by
    the vector trainer.
    """
    env = VectorMigrationEnv.from_market(
        market,
        config.num_envs,
        seed=config.seed,
        history_length=config.history_length,
        rounds_per_episode=config.rounds_per_episode,
        reward_mode=config.reward_mode,
    )
    agent, result, scaler = train_pricing_agent(
        env,
        trainer_config=TrainerConfig(
            num_episodes=config.num_episodes,
            update_interval=config.update_interval,
            update_epochs=config.update_epochs,
            batch_size=config.batch_size,
            gamma=config.gamma,
            gae_lambda=config.gae_lambda,
        ),
        ppo_config=PPOConfig(
            learning_rate=config.learning_rate,
            entropy_coef=config.entropy_coef,
        ),
        seed=config.seed,
    )
    policy = LearnedPricing(
        agent,
        scaler,
        market,
        history_length=config.history_length,
        seed=config.seed,
    )
    return TrainedPricing(policy=policy, training=result)


def _summarise(
    market: StackelbergMarket, played: PriceBatchOutcome
) -> PolicyEvaluation:
    """Fold one evaluation's per-round outcomes into a :class:`PolicyEvaluation`."""
    total_bandwidths = played.allocations.sum(axis=-1)
    total_vmu = played.vmu_utilities.sum(axis=-1)
    avg_vmu = played.vmu_utilities.mean(axis=-1)
    best = played.best_index
    return PolicyEvaluation(
        mean_price=float(played.prices.mean()),
        best_price=float(played.prices[best]),
        mean_msp_utility=float(played.msp_utilities.mean()),
        best_msp_utility=float(played.msp_utilities[best]),
        total_bandwidth_market=float(
            market.to_market_units(total_bandwidths[best])
        ),
        total_vmu_utility=float(total_vmu[best]),
        mean_vmu_utility=float(avg_vmu[best]),
        mean_total_bandwidth_market=float(
            market.to_market_units(total_bandwidths.mean())
        ),
        mean_total_vmu_utility=float(total_vmu.mean()),
        mean_avg_vmu_utility=float(avg_vmu.mean()),
    )


def evaluate_policies_stacked(
    markets: Sequence[StackelbergMarket],
    policies: Sequence[PricingPolicy],
    *,
    rounds: int = 100,
) -> list[PolicyEvaluation]:
    """Evaluate ``policies[m]`` on ``markets[m]`` for every ``m``, stacked.

    Pairs whose policy commits to its price vector are solved as **one**
    :meth:`MarketStack.outcomes_stacked` pass over the whole market grid
    (the Fig. 3 sweep shape); history-dependent policies fall back to the
    per-market sequential loop. Per market, the returned evaluation equals
    the ``M = 1`` call on that market exactly.
    """
    for policy in policies:
        policy.reset()
    played_all = play_policies_stacked(markets, policies, rounds)
    return [
        _summarise(market, played)
        for market, (_, played) in zip(markets, played_all)
    ]


def validate_schemes(schemes: tuple[str, ...]) -> tuple[str, ...]:
    """``schemes``, checked up front against the known scheme names."""
    unknown = sorted(set(schemes) - set(_KNOWN_SCHEMES))
    if unknown:
        raise ConfigurationError(
            f"unknown schemes {unknown}; known schemes: {list(_KNOWN_SCHEMES)}"
        )
    return schemes


def _scheme_policy(
    scheme: str, market: StackelbergMarket, config: ExperimentConfig
) -> PricingPolicy:
    """Build one scheme's policy for one market."""
    cfg = market.config
    if scheme == "drl":
        return train_drl(market, config).policy
    if scheme == "greedy":
        return GreedyPricing(cfg.unit_cost, cfg.max_price, seed=config.seed + 1)
    if scheme == "random":
        return RandomPricing(cfg.unit_cost, cfg.max_price, seed=config.seed + 2)
    if scheme == "equilibrium":
        return OraclePricing(market)
    raise ConfigurationError(
        f"unknown scheme {scheme!r}; known schemes: {list(_KNOWN_SCHEMES)}"
    )


def compare_schemes_stacked(
    markets: Sequence[StackelbergMarket],
    config: ExperimentConfig,
    *,
    schemes: tuple[str, ...] = ("drl", "greedy", "random", "equilibrium"),
) -> list[dict[str, PolicyEvaluation]]:
    """Evaluate the requested schemes across a whole market grid, stacked.

    One entry of the returned list per market, each a scheme → evaluation
    dict in ``schemes`` order, exactly equal to the ``M = 1`` call on that
    market (``compare_schemes_stacked([markets[m]], config, ...)[0]``).
    Unknown scheme names raise :class:`ConfigurationError`. Schemes that
    commit to their price vectors (``random``, ``equilibrium`` — the
    oracles from one stacked equilibrium solve,
    :meth:`OraclePricing.from_stack`) evaluate the whole grid as one
    stacked market solve; history-dependent ones (``drl``, ``greedy``)
    fall back to per-market loops inside
    :func:`evaluate_policies_stacked`. The Fig. 3 specs pass only the
    former here and run the latter as ``market_scheme`` jobs.
    """
    validate_schemes(schemes)
    results: list[dict[str, PolicyEvaluation]] = [{} for _ in markets]
    for scheme in schemes:
        if scheme == "equilibrium":
            policies = OraclePricing.from_stack(markets)
        else:
            policies = [
                _scheme_policy(scheme, market, config) for market in markets
            ]
        evaluations = evaluate_policies_stacked(
            markets, policies, rounds=config.evaluation_rounds
        )
        for index, evaluation in enumerate(evaluations):
            results[index][scheme] = evaluation
    return results


def evaluation_to_payload(evaluation: PolicyEvaluation) -> dict:
    """A :class:`PolicyEvaluation` as a JSON-able dict (flat float fields).

    Floats survive JSON exactly, so an evaluation computed in a worker and
    shipped home through this payload equals the in-process one bitwise.
    """
    return {name: float(value) for name, value in vars(evaluation).items()}


def evaluation_from_payload(payload: Mapping) -> PolicyEvaluation:
    """Rebuild the evaluation :func:`evaluation_to_payload` serialised."""
    if not isinstance(payload, Mapping):
        raise ExperimentError(
            f"evaluation payload must be a mapping, got {type(payload).__name__}"
        )
    expected = {field.name for field in fields(PolicyEvaluation)}
    if set(payload) != expected:
        missing = sorted(expected - set(payload))
        unexpected = sorted(set(payload) - expected)
        raise ExperimentError(
            f"evaluation payload fields mismatch: missing={missing}, "
            f"unexpected={unexpected}"
        )
    return PolicyEvaluation(**{name: float(payload[name]) for name in expected})


def run_market_scheme_job(payload: Mapping) -> dict:
    """Job kind ``market_scheme``: train/build one scheme on one market.

    The Fig. 3 sweeps' per-market unit: rebuilds the market and config
    from their payloads, builds the scheme's policy (for ``drl`` this is a
    full PPO training — the expensive, independent unit worth fanning out),
    evaluates it, and ships the evaluation home as a JSON payload. A
    trained DRL agent is also persisted via
    :func:`repro.drl.checkpoints.save_agent` — to an explicit
    ``checkpoint`` payload path if given, else (when the scheduler
    injected its artifact store's root) to
    ``<store>/checkpoints/<job_hash>.npz`` — so the parent (or a later
    process) can reload the policy itself. The target derived from the
    injected dir is *not* part of the job spec, so the job hash — and the
    store — stays stable across directory spellings and machines.
    """
    artifact_dir = payload.get(ARTIFACT_DIR_KEY)
    spec_payload = {
        key: value for key, value in payload.items() if key != ARTIFACT_DIR_KEY
    }
    market = market_from_payload(payload["market"])
    config = config_from_payload(payload["config"])
    scheme = str(payload["scheme"])
    policy = _scheme_policy(scheme, market, config)
    (evaluation,) = evaluate_policies_stacked(
        [market], [policy], rounds=config.evaluation_rounds
    )
    result = {"scheme": scheme, "evaluation": evaluation_to_payload(evaluation)}
    if isinstance(policy, LearnedPricing):
        explicit = payload.get("checkpoint")
        if explicit is not None:
            result["checkpoint"] = str(
                _save_policy(policy, explicit, config)
            )
        elif artifact_dir is not None:
            # Record the checkpoint *relative to the store root* so the
            # stored result stays valid when the store is moved or shared
            # across machines (`Artifact.checkpoint()` resolves it against
            # the consuming store's root).
            job_hash = Job("market_scheme", spec_payload).job_hash()
            relative = Path("checkpoints") / f"{job_hash}.npz"
            _save_policy(policy, Path(artifact_dir) / relative, config)
            result["checkpoint"] = str(relative)
    return result


def run_training_job(payload: Mapping) -> dict:
    """Job kind ``training_run``: one full DRL training, series included.

    The Fig. 2 / ablation unit: rebuilds the market and config from their
    payloads, runs :func:`train_drl` (the expensive, independent unit),
    and ships home the whole training series — ``episode_returns`` and
    ``episode_best_utilities`` (Fig. 2's two panels) plus the converged
    ``tail_mean_best_utility``. With ``"evaluate": true`` in the payload
    the trained policy is also played for ``config.evaluation_rounds`` and
    the :class:`PolicyEvaluation` payload attached (the ablation tables'
    evaluation column). Floats survive the JSON wire exactly, so a
    training executed in a worker merges back bitwise-equal to the
    in-process run. Like ``market_scheme``, the trained agent is parked
    at ``<store>/checkpoints/<job_hash>.npz`` (store-relative on the
    wire) when the scheduler injected its artifact store's root.
    """
    artifact_dir = payload.get(ARTIFACT_DIR_KEY)
    spec_payload = {
        key: value for key, value in payload.items() if key != ARTIFACT_DIR_KEY
    }
    market = market_from_payload(payload["market"])
    config = config_from_payload(payload["config"])
    trained = train_drl(market, config)
    result: dict = {
        "episode_returns": [
            float(v) for v in trained.training.episode_returns
        ],
        "episode_best_utilities": [
            float(v) for v in trained.training.episode_best_utilities
        ],
        "tail_mean_best_utility": trained.training.tail_mean_best_utility(),
    }
    if bool(payload.get("evaluate", False)):
        (evaluation,) = evaluate_policies_stacked(
            [market], [trained.policy], rounds=config.evaluation_rounds
        )
        result["evaluation"] = evaluation_to_payload(evaluation)
    if artifact_dir is not None:
        job_hash = Job("training_run", spec_payload).job_hash()
        relative = Path("checkpoints") / f"{job_hash}.npz"
        _save_policy(trained.policy, Path(artifact_dir) / relative, config)
        result["checkpoint"] = str(relative)
    return result


def _save_policy(
    policy: LearnedPricing, target: str | Path, config: ExperimentConfig
) -> Path:
    return save_agent(
        target,
        policy.agent,
        policy.scaler,
        history_length=config.history_length,
    )


def plan_scheme_jobs(
    markets: Sequence[StackelbergMarket],
    config: ExperimentConfig,
    schemes: tuple[str, ...],
) -> tuple[list[Job], list[tuple[int, str]]]:
    """The job half of a scheduled market-grid comparison.

    One ``market_scheme`` :class:`Job` per (non-plannable scheme, market)
    pair, plus the ``(market index, scheme)`` slot of each job so
    :func:`assemble_scheme_results` can merge the results back. Plannable
    schemes (``random``, ``equilibrium``) emit no jobs — they evaluate as
    one stacked solve at assemble time.
    """
    validate_schemes(schemes)
    jobs: list[Job] = []
    slots: list[tuple[int, str]] = []
    config_payload = config_to_payload(config)
    market_payloads = [market_to_payload(market) for market in markets]
    for scheme in schemes:
        if scheme in _PLANNABLE_SCHEMES:
            continue
        for index, market_payload in enumerate(market_payloads):
            # DRL jobs park their trained agent in the artifact store's
            # checkpoints/ on their own: the target is derived from the
            # job hash and the injected store root at execution time,
            # never written into the spec.
            jobs.append(
                solve_job(
                    "market_scheme",
                    {
                        "scheme": scheme,
                        "market": market_payload,
                        "config": config_payload,
                    },
                )
            )
            slots.append((index, scheme))
    return jobs, slots


def assemble_scheme_results(
    markets: Sequence[StackelbergMarket],
    config: ExperimentConfig,
    schemes: tuple[str, ...],
    slots: Sequence[tuple[int, str]],
    payloads: Sequence[Mapping],
) -> list[dict[str, PolicyEvaluation]]:
    """Merge :func:`plan_scheme_jobs` results; solve plannable schemes
    as one stacked in-process pass. Each market's dict lists the schemes
    in ``schemes`` order."""
    merged: list[dict[str, PolicyEvaluation]] = [{} for _ in markets]
    for payload, (index, scheme) in zip(payloads, slots):
        merged[index][scheme] = evaluation_from_payload(payload["evaluation"])
    plannable = tuple(s for s in schemes if s in _PLANNABLE_SCHEMES)
    if plannable:
        for index, by_scheme in enumerate(
            compare_schemes_stacked(markets, config, schemes=plannable)
        ):
            merged[index].update(by_scheme)
    return [{scheme: by[scheme] for scheme in schemes} for by in merged]
