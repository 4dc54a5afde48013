"""Social-welfare analysis of the migration market.

The paper maximises the MSP's utility; this module asks the economist's
follow-up questions:

- what is the **social welfare** (MSP profit + Σ VMU utility) at a price?
- which price would a welfare-maximising planner post, and how much
  welfare does monopoly pricing burn (the *deadweight loss*)?
- how is the surplus split between the provider and the users?

With slack capacity the planner's optimum is marginal-cost pricing
(``p = C``): the leader's margin is a pure transfer, so welfare
``W(p) = Σ G_n(b_n(p)) − C Σ b_n(p)`` is maximised where each VMU's
marginal immersion equals the true resource cost (``b^W_n = α_n/C −
D_n/SE`` — Eq. (8) at ``p = C``). Note that with the paper's default
``B_max`` the capacity *binds* at cost (demand at ``p = C`` is ~4x the
cap), so the planner's price sits above ``C`` where it rations the scarce
spectrum; both regimes are exercised in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stackelberg import StackelbergMarket
from repro.game.solvers import grid_then_golden

__all__ = [
    "WelfareReport",
    "social_welfare",
    "social_welfare_batch",
    "welfare_report",
]


def social_welfare(market: StackelbergMarket, price: float) -> float:
    """Total surplus at a posted ``price``: MSP profit + Σ VMU utility.

    Payments cancel between the two sides, so this equals
    ``Σ immersion − C · Σ bandwidth`` evaluated at the induced allocation.
    """
    outcome = market.round_outcome(price)
    return float(outcome.msp_utility + outcome.vmu_utilities.sum())


def social_welfare_batch(
    market: StackelbergMarket, prices: np.ndarray
) -> np.ndarray:
    """Total surplus per entry of a price vector ``(P,)``, one batched solve.

    Row for row this is the identical arithmetic :func:`social_welfare`
    evaluates, so the planner search can hand it to
    :func:`repro.game.solvers.grid_then_golden` as the ``vector_objective``
    and scan its whole grid in a single market evaluation.
    """
    played = market.outcomes_batch(prices)
    return played.msp_utilities + played.vmu_utilities.sum(axis=-1)


@dataclass(frozen=True)
class WelfareReport:
    """Welfare decomposition of a market."""

    monopoly_price: float
    monopoly_welfare: float
    monopoly_msp_share: float
    """Fraction of monopoly welfare captured by the MSP."""
    planner_price: float
    planner_welfare: float
    deadweight_loss: float
    """Welfare destroyed by monopoly pricing (planner − monopoly)."""

    @property
    def efficiency(self) -> float:
        """Monopoly welfare as a fraction of the planner's."""
        if self.planner_welfare == 0.0:
            return 1.0
        return self.monopoly_welfare / self.planner_welfare


def welfare_report(market: StackelbergMarket) -> WelfareReport:
    """Compare the monopoly equilibrium against the welfare planner.

    The planner can post any price in ``(0, p_max]`` (in particular,
    below the monopolist's floor ``C`` would sell at a loss, so the
    welfare optimum is at ``p = C`` whenever the capacity is slack; with a
    binding ``B_max`` the optimum can sit higher, which the numeric search
    handles).
    """
    equilibrium = market.equilibrium()
    config = market.config

    def welfare(price: float) -> float:
        return social_welfare(market, price)

    planner_price, planner_welfare = grid_then_golden(
        welfare,
        config.unit_cost,
        config.max_price,
        grid_points=1024,
        vector_objective=lambda prices: social_welfare_batch(market, prices),
    )
    monopoly_welfare = float(
        equilibrium.msp_utility + equilibrium.vmu_utilities.sum()
    )
    msp_share = (
        equilibrium.msp_utility / monopoly_welfare
        if monopoly_welfare > 0.0
        else float("nan")
    )
    return WelfareReport(
        monopoly_price=equilibrium.price,
        monopoly_welfare=monopoly_welfare,
        monopoly_msp_share=float(msp_share),
        planner_price=float(planner_price),
        planner_welfare=float(planner_welfare),
        deadweight_loss=max(0.0, float(planner_welfare) - monopoly_welfare),
    )
