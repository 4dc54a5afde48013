"""Experiment harness: a declarative spec registry over scheduler jobs.

Every experiment — the paper figures, robustness sweeps, ablations,
welfare analysis, multiseed comparison — is a registered
:class:`~repro.experiments.api.ExperimentSpec`:
:func:`~repro.experiments.api.run_experiment` is the one entry point, a
spec's ``plan()`` compiles it into scheduler :class:`Job`s (per seed /
per market point / per grid cell / per chunk) that run in-process or
through a scheduler (bitwise-equal either way), and its ``assemble()``
merges their results.
"""

from repro.experiments.ablations import (
    CapacityAblationResult,
    HistoryAblationResult,
    RewardAblationResult,
)
from repro.experiments.api import (
    ExperimentPlan,
    ExperimentSpec,
    ParamSpec,
    experiment_names,
    get_experiment,
    result_from_payload,
    result_to_payload,
    run_experiment,
    schedule,
)
from repro.experiments.bayesian import BayesianPricingResult
from repro.experiments.cityscale import CityScaleResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3_cost import CostSweepResult
from repro.experiments.fig3_vmus import VmuSweepResult
from repro.experiments.multiseed import MultiSeedResult
from repro.experiments.price_of_anarchy import PriceOfAnarchyResult
from repro.experiments.pricing_service import PricingServiceResult
from repro.experiments.robustness import (
    DistanceSweepResult,
    FadingSweepResult,
    PopulationSweepResult,
)
from repro.experiments.runner import (
    PolicyEvaluation,
    TrainedPricing,
    compare_schemes_stacked,
    evaluate_policies_stacked,
    train_drl,
)
from repro.experiments.scheduler import (
    Job,
    config_from_payload,
    config_to_payload,
    execute_job,
    market_from_payload,
    market_to_payload,
    register_job_kind,
)
from repro.experiments.welfare import WelfareResult

__all__ = [
    "CapacityAblationResult",
    "HistoryAblationResult",
    "RewardAblationResult",
    "ExperimentPlan",
    "ExperimentSpec",
    "ParamSpec",
    "experiment_names",
    "get_experiment",
    "result_from_payload",
    "result_to_payload",
    "run_experiment",
    "schedule",
    "ExperimentConfig",
    "BayesianPricingResult",
    "Fig2Result",
    "PriceOfAnarchyResult",
    "CityScaleResult",
    "CostSweepResult",
    "VmuSweepResult",
    "MultiSeedResult",
    "PricingServiceResult",
    "DistanceSweepResult",
    "FadingSweepResult",
    "PopulationSweepResult",
    "PolicyEvaluation",
    "TrainedPricing",
    "compare_schemes_stacked",
    "evaluate_policies_stacked",
    "train_drl",
    "Job",
    "config_from_payload",
    "config_to_payload",
    "execute_job",
    "market_from_payload",
    "market_to_payload",
    "register_job_kind",
    "WelfareResult",
]
