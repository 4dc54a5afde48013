"""repro — reproduction of "Learning-based Incentive Mechanism for Task
Freshness-aware Vehicular Twin Migration" (ICDCS 2023, arXiv:2309.04929).

Public API map:

- :mod:`repro.core` — the AoTM-priced Stackelberg market and its
  equilibrium (the paper's contribution);
- :mod:`repro.channel` / :mod:`repro.entities` / :mod:`repro.mobility` —
  the vehicular-metaverse substrates (RSU links, VMU profiles, city-grid
  market generation);
- :mod:`repro.drl` / :mod:`repro.env` — the from-scratch DRL stack (PPO
  over the pricing POMDP, one flat-parameter numpy actor-critic);
- :mod:`repro.baselines` — random/greedy/fixed/oracle pricing;
- :mod:`repro.sim` — the batched simulation engine (price-batch market
  evaluation, vector envs, batched policy evaluation);
- :mod:`repro.experiments` — per-figure reproduction runners.

Quickstart::

    from repro.core import StackelbergMarket
    from repro.entities import paper_fig2_population

    market = StackelbergMarket(paper_fig2_population())
    eq = market.equilibrium()
    print(eq.price, eq.msp_utility)
"""

from repro import constants
from repro.core.stackelberg import (
    MarketConfig,
    MarketOutcome,
    StackelbergEquilibrium,
    StackelbergMarket,
)
from repro.entities.vmu import (
    VmuProfile,
    paper_fig2_population,
    sample_population,
    uniform_population,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "constants",
    "MarketConfig",
    "MarketOutcome",
    "StackelbergEquilibrium",
    "StackelbergMarket",
    "VmuProfile",
    "paper_fig2_population",
    "sample_population",
    "uniform_population",
    "ReproError",
    "__version__",
]
