"""The batched simulation engine (see README.md in this package).

One import point for everything that runs the Stackelberg pricing game on a
batch axis instead of a Python loop:

- price-batch market evaluation (:class:`PriceBatchOutcome` from
  :meth:`StackelbergMarket.outcomes_batch` over a
  :func:`uniform_price_grid`);
- the market-stack axis (:class:`MarketStack`, :class:`StackedOutcome`) —
  ``M`` *different* markets solved in one pass, re-exported from
  :mod:`repro.core.marketstack`;
- stacked policy evaluation (:func:`play_policies_stacked`, a single
  market being its ``M = 1`` case, and :func:`plan_prices`);
- the vector environment (:class:`VectorMigrationEnv`) and the batched
  Algorithm-1 trainer (:class:`VectorTrainer`) re-exported from their home
  layers.
"""

from repro.core.marketstack import MarketStack, StackedOutcome
from repro.core.stackelberg import PriceBatchOutcome, uniform_price_grid
from repro.drl.trainer import VectorTrainer
from repro.env.vector import VectorMigrationEnv
from repro.sim.engine import plan_prices, play_policies_stacked

__all__ = [
    "MarketStack",
    "StackedOutcome",
    "PriceBatchOutcome",
    "VectorTrainer",
    "VectorMigrationEnv",
    "plan_prices",
    "play_policies_stacked",
    "uniform_price_grid",
]
