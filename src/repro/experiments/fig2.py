"""Experiment E1/E2 — Fig. 2: convergence of the DRL incentive mechanism.

Setting (paper Sec. V-B): two VMUs with α1 = α2 = 5, D1 = 200 MB,
D2 = 100 MB, cost C = 5. Fig. 2(a) plots the episode return converging to
the maximum round count K; Fig. 2(b) plots the MSP utility converging to
the Stackelberg-equilibrium utility.

Training runs through the batched simulation engine (:mod:`repro.sim`):
``config.num_envs`` widens the env-batch axis, in which case the series
carry ``num_envs`` episode entries per training iteration (env order).
The training is one ``training_run`` job; the equilibrium reference line (Fig. 2(b)'s dashed optimum) comes from the
stacked equilibrium solver — ``market.equilibrium()`` is the ``M = 1``
case of :meth:`repro.core.marketstack.MarketStack.equilibria_stacked`, and
the memoised solve is shared with the oracle baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import api
from repro.experiments.api import CONFIG_PARAMS, MARKET_PARAM, ExperimentPlan
from repro.experiments.scheduler import Job, config_to_payload, market_to_payload
from repro.utils.tables import Table

__all__ = ["Fig2Result", "FIG2"]


@dataclass
class Fig2Result:
    """Series behind Fig. 2(a) and Fig. 2(b)."""

    episode_returns: list[float]
    episode_best_utilities: list[float]
    equilibrium_utility: float
    equilibrium_price: float
    max_round: int

    @property
    def converged_return(self) -> float:
        """Mean episode return over the final 10% of training."""
        count = max(1, len(self.episode_returns) // 10)
        return float(np.mean(self.episode_returns[-count:]))

    @property
    def converged_utility(self) -> float:
        """Mean episode-best MSP utility over the final 10% of training."""
        count = max(1, len(self.episode_best_utilities) // 10)
        return float(np.mean(self.episode_best_utilities[-count:]))

    @property
    def utility_gap(self) -> float:
        """Relative gap between converged and equilibrium MSP utility."""
        return abs(self.converged_utility - self.equilibrium_utility) / abs(
            self.equilibrium_utility
        )

    def table(self, *, stride: int | None = None) -> Table:
        """The Fig. 2 series as a printable table (one row per episode,
        or every ``stride`` episodes)."""
        stride = stride or max(1, len(self.episode_returns) // 10)
        table = Table(
            headers=("episode", "return", "best_msp_utility", "equilibrium_utility"),
            title=(
                "Fig. 2 — DRL convergence "
                f"(K={self.max_round}, equilibrium p*={self.equilibrium_price:.2f})"
            ),
        )
        for episode in range(0, len(self.episode_returns), stride):
            table.add_row(
                episode,
                self.episode_returns[episode],
                self.episode_best_utilities[episode],
                self.equilibrium_utility,
            )
        table.add_row(
            len(self.episode_returns) - 1,
            self.episode_returns[-1],
            self.episode_best_utilities[-1],
            self.equilibrium_utility,
        )
        return table


def _plan(params) -> ExperimentPlan:
    config = api.resolve_config(params)
    market = api.resolve_market(params)
    job = Job(
        "training_run",
        {
            "market": market_to_payload(market),
            "config": config_to_payload(config),
            "evaluate": False,
        },
    )
    return ExperimentPlan(
        "fig2",
        dict(params),
        [job],
        context={"market": market, "config": config},
    )


def _assemble(plan: ExperimentPlan, results: list) -> Fig2Result:
    series = results[0]
    equilibrium = plan.context["market"].equilibrium()
    return Fig2Result(
        episode_returns=[float(v) for v in series["episode_returns"]],
        episode_best_utilities=[
            float(v) for v in series["episode_best_utilities"]
        ],
        equilibrium_utility=equilibrium.msp_utility,
        equilibrium_price=equilibrium.price,
        max_round=plan.context["config"].rounds_per_episode,
    )


FIG2 = api.register(
    api.ExperimentSpec(
        name="fig2",
        description=(
            "Fig. 2 — DRL convergence of the incentive mechanism on the "
            "paper's 2-VMU market (episode return and best MSP utility "
            "series vs the Stackelberg equilibrium)"
        ),
        params=(*CONFIG_PARAMS, MARKET_PARAM),
        result_type=Fig2Result,
        plan=_plan,
        assemble=_assemble,
    )
)

