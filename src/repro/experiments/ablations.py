"""Ablation experiments E7/E8 (DESIGN.md): design choices of the mechanism.

E7 — reward shaping: the paper's binary Eq.-12 reward vs the shaped
per-round-utility reward. Both converge to the same equilibrium; the
shaped reward converges in fewer episodes (less sparse signal).

E8 — observation history length L ∈ {1, 2, 4, 8}: the paper fixes L = 4;
this ablation measures how much history the MSP agent actually needs in a
stationary follower population.

E9 — sellable-capacity B_max: the paper fixes B_max = 50; this ablation
sweeps it and reports how the equilibrium moves between the
capacity-binding and slack regimes, one ``equilibrium_cell`` job per
capacity (E7 and E8 plan one ``training_run`` job per mode / length).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.stackelberg import StackelbergMarket
from repro.experiments import api
from repro.experiments.api import (
    CONFIG_PARAMS,
    MARKET_PARAM,
    ExperimentPlan,
    ParamSpec,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.scheduler import (
    Job,
    config_to_payload,
    market_to_payload,
    solve_job,
)
from repro.utils.tables import Table

__all__ = [
    "RewardAblationResult",
    "HistoryAblationResult",
    "CapacityAblationResult",
    "REWARD_ABLATION",
    "HISTORY_ABLATION",
    "CAPACITY_ABLATION",
]


@dataclass
class RewardAblationResult:
    """E7 — converged utility per reward formulation."""

    equilibrium_utility: float
    rows: list[tuple[str, float, float]] = field(default_factory=list)
    """(reward_mode, converged best utility, evaluated best utility)."""

    def table(self) -> Table:
        """Printable comparison."""
        table = Table(
            headers=("reward_mode", "train_best_utility", "eval_best_utility", "equilibrium"),
            title="Ablation E7 — reward shaping (Eq. 12 binary vs utility-shaped)",
        )
        for mode, trained, evaluated in self.rows:
            table.add_row(mode, trained, evaluated, self.equilibrium_utility)
        return table


@dataclass
class HistoryAblationResult:
    """E8 — converged utility per observation history length."""

    equilibrium_utility: float
    rows: list[tuple[int, float, float]] = field(default_factory=list)
    """(history length L, converged best utility, evaluated best utility)."""

    def table(self) -> Table:
        """Printable comparison."""
        table = Table(
            headers=("history_L", "train_best_utility", "eval_best_utility", "equilibrium"),
            title="Ablation E8 — observation history length",
        )
        for length, trained, evaluated in self.rows:
            table.add_row(length, trained, evaluated, self.equilibrium_utility)
        return table


@dataclass
class CapacityAblationResult:
    """E9 — equilibrium vs sellable capacity ``B_max``."""

    capacities: tuple[float, ...]
    rows: list[tuple[float, float, float, bool]] = field(default_factory=list)
    """(B_max, equilibrium price, MSP utility, capacity binding)."""

    def table(self) -> Table:
        """Printable sweep table."""
        table = Table(
            headers=("B_max", "p*", "msp_utility", "capacity_binding"),
            title="Ablation E9 — equilibrium vs sellable capacity B_max",
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _training_job(market: StackelbergMarket, config: ExperimentConfig) -> Job:
    return Job(
        "training_run",
        {
            "market": market_to_payload(market),
            "config": config_to_payload(config),
            "evaluate": True,
        },
    )


def _cell_from_payload(payload) -> tuple[float, float]:
    return (
        float(payload["tail_mean_best_utility"]),
        float(payload["evaluation"]["best_msp_utility"]),
    )


# ------------------------------------------------------------------ #
# E7 — reward shaping
# ------------------------------------------------------------------ #
def _reward_plan(params) -> ExperimentPlan:
    config = api.resolve_config(params)
    market = api.resolve_market(params)
    modes = tuple(params["modes"])
    jobs = [
        _training_job(market, config.with_reward_mode(mode)) for mode in modes
    ]
    return ExperimentPlan(
        "reward_ablation",
        dict(params),
        jobs,
        context={"market": market, "modes": modes},
    )


def _reward_assemble(plan: ExperimentPlan, results: list) -> RewardAblationResult:
    equilibrium = plan.context["market"].equilibrium()
    result = RewardAblationResult(equilibrium_utility=equilibrium.msp_utility)
    for mode, payload in zip(plan.context["modes"], results):
        result.rows.append((mode, *_cell_from_payload(payload)))
    return result


REWARD_ABLATION = api.register(
    api.ExperimentSpec(
        name="reward_ablation",
        description=(
            "Ablation E7 — reward shaping: the paper's binary Eq.-12 "
            "reward vs the shaped per-round-utility reward (one DRL "
            "training per mode)"
        ),
        params=(
            ParamSpec("modes", "strs", ("paper", "utility"), "reward formulations to train"),
            MARKET_PARAM,
            *CONFIG_PARAMS,
        ),
        result_type=RewardAblationResult,
        plan=_reward_plan,
        assemble=_reward_assemble,
    )
)


# ------------------------------------------------------------------ #
# E8 — observation history length
# ------------------------------------------------------------------ #
def _history_plan(params) -> ExperimentPlan:
    config = api.resolve_config(params)
    market = api.resolve_market(params)
    lengths = tuple(params["lengths"])
    jobs = [
        _training_job(market, config.with_history_length(length))
        for length in lengths
    ]
    return ExperimentPlan(
        "history_ablation",
        dict(params),
        jobs,
        context={"market": market, "lengths": lengths},
    )


def _history_assemble(
    plan: ExperimentPlan, results: list
) -> HistoryAblationResult:
    equilibrium = plan.context["market"].equilibrium()
    result = HistoryAblationResult(equilibrium_utility=equilibrium.msp_utility)
    for length, payload in zip(plan.context["lengths"], results):
        result.rows.append((length, *_cell_from_payload(payload)))
    return result


HISTORY_ABLATION = api.register(
    api.ExperimentSpec(
        name="history_ablation",
        description=(
            "Ablation E8 — observation history length L: how much pricing "
            "history the MSP agent needs (one DRL training per length)"
        ),
        params=(
            ParamSpec("lengths", "ints", (1, 2, 4, 8), "history lengths L to train"),
            MARKET_PARAM,
            *CONFIG_PARAMS,
        ),
        result_type=HistoryAblationResult,
        plan=_history_plan,
        assemble=_history_assemble,
    )
)


# ------------------------------------------------------------------ #
# E9 — sellable capacity
# ------------------------------------------------------------------ #
DEFAULT_CAPACITIES = (5.0, 10.0, 25.0, 50.0, 100.0, 200.0)


def _capacity_markets(params) -> list[StackelbergMarket]:
    base = api.resolve_market(params)
    return [
        StackelbergMarket(
            base.vmus,
            config=replace(base.config, max_bandwidth=float(capacity)),
            link=base.link,
        )
        for capacity in params["capacities"]
    ]


def _capacity_pack(params, cells) -> CapacityAblationResult:
    result = CapacityAblationResult(capacities=tuple(params["capacities"]))
    for capacity, (price, msp_utility, binding) in zip(
        result.capacities, cells
    ):
        result.rows.append((float(capacity), price, msp_utility, binding))
    return result


def _capacity_plan(params) -> ExperimentPlan:
    markets = _capacity_markets(params)
    jobs = [
        solve_job("equilibrium_cell", {"market": market_to_payload(market)})
        for market in markets
    ]
    return ExperimentPlan("capacity_ablation", dict(params), jobs)


def _capacity_assemble(
    plan: ExperimentPlan, results: list
) -> CapacityAblationResult:
    cells = [
        (
            float(payload["price"]),
            float(payload["msp_utility"]),
            bool(payload["capacity_binding"]),
        )
        for payload in results
    ]
    return _capacity_pack(plan.params, cells)


CAPACITY_ABLATION = api.register(
    api.ExperimentSpec(
        name="capacity_ablation",
        description=(
            "Ablation E9 — equilibrium vs sellable capacity B_max, "
            "between the capacity-binding and slack regimes"
        ),
        params=(
            ParamSpec("capacities", "floats", DEFAULT_CAPACITIES, "B_max values to sweep"),
            MARKET_PARAM,
        ),
        result_type=CapacityAblationResult,
        plan=_capacity_plan,
        assemble=_capacity_assemble,
    )
)

