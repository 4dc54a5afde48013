"""The paper's core contribution: the AoTM-priced Stackelberg incentive market.

Solve entry points, scalar to stacked:

- :meth:`StackelbergMarket.round_outcome` / ``outcomes_batch`` — one
  market at one price / a ``(P,)`` price vector;
- :meth:`MarketStack.outcomes_stacked` — ``M`` different markets at
  ``(M,)`` prices or ``(M, R)`` grids, one numpy pass;
- :meth:`StackelbergMarket.equilibrium` /
  :meth:`MarketStack.equilibria_stacked` — the closed-form Stackelberg
  equilibrium of one market / of ``M`` markets as the argmax of one
  stacked evaluation of Theorem 2's candidates (the scalar call is the
  ``M = 1`` case of the stacked solve, so the two agree bitwise).

All of them, and :class:`MultiMspMarket`, run one implementation of the
game's formulas: the private ``_*_rows`` kernels of
:mod:`repro.core.utilities` (Eqs. 2, 4 and 8) and
``repro.channel.ofdma._rationing_rows`` (the ``B_max`` rule).
"""

from repro.core.mechanism import GameHistory, PricingPolicy, RoundRecord
from repro.core.marketstack import (
    MarketColumns,
    MarketStack,
    MutableMarketStack,
    StackedEquilibria,
    StackedOutcome,
)
from repro.core.bayesian import (
    BayesianStackelbergEquilibrium,
    BayesianStackelbergMarket,
    ScenarioSpec,
    sample_market_distribution,
    sample_scenarios,
    scenario_market,
)
from repro.core.multimsp import (
    BestResponseTrace,
    MspSpec,
    MultiMspMarket,
    OligopolyEquilibrium,
    OligopolyOutcome,
    oligopoly_from_market,
)
from repro.core.welfare import (
    WelfareReport,
    social_welfare,
    social_welfare_batch,
    welfare_report,
)
from repro.core.stackelberg import (
    MarketConfig,
    MarketOutcome,
    PriceBatchOutcome,
    StackelbergEquilibrium,
    StackelbergMarket,
)

__all__ = [
    "MarketColumns",
    "MarketStack",
    "MutableMarketStack",
    "StackedEquilibria",
    "StackedOutcome",
    "BayesianStackelbergEquilibrium",
    "BayesianStackelbergMarket",
    "ScenarioSpec",
    "sample_market_distribution",
    "sample_scenarios",
    "scenario_market",
    "BestResponseTrace",
    "MspSpec",
    "MultiMspMarket",
    "OligopolyEquilibrium",
    "OligopolyOutcome",
    "oligopoly_from_market",
    "WelfareReport",
    "social_welfare",
    "social_welfare_batch",
    "welfare_report",
    "GameHistory",
    "PricingPolicy",
    "RoundRecord",
    "MarketConfig",
    "MarketOutcome",
    "PriceBatchOutcome",
    "StackelbergEquilibrium",
    "StackelbergMarket",
]
