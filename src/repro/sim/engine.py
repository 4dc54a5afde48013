"""Batched repeated-game evaluation: play pricing policies without the
round-by-round Python loop whenever the policy allows it.

:func:`play_policies_stacked` is the one evaluation path; a single market
is its ``M = 1`` case. Two speed levers, both exact:

- **Price-vector fast path.** Policies whose future prices do not depend on
  intermediate outcomes (random, fixed, oracle) implement
  ``propose_prices(history, count)`` and commit to all ``count`` prices up
  front. The committed ``(R,)`` price vectors of every such (market,
  policy) pair — e.g. a whole Fig. 3 sweep's market grid — are solved as
  one :meth:`repro.core.marketstack.MarketStack.outcomes_stacked` pass
  over the ``(M, R)`` price grid.
- **Outcome memoisation.** History-dependent policies (greedy replay, the
  learned DRL policy) stay sequential, but the market is deterministic
  given a price, so repeated prices — greedy replays its best past price on
  almost every round — reuse the cached outcome instead of re-solving the
  Stackelberg stage.

Both paths produce, per market, the identical :class:`GameHistory` and
per-round :class:`PriceBatchOutcome` (axis 0 = round) as the classic round
loop (``run_rounds`` in ``tests/game_oracle.py``, the reference they are
pinned against); they are the engine behind
:func:`repro.experiments.runner.evaluate_policies_stacked`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.marketstack import MarketStack
from repro.core.mechanism import GameHistory, PricingPolicy, RoundRecord
from repro.core.stackelberg import MarketOutcome, PriceBatchOutcome, StackelbergMarket
from repro.errors import ConfigurationError

__all__ = ["plan_prices", "play_policies_stacked"]


def plan_prices(
    policy: PricingPolicy, history: GameHistory, count: int
) -> np.ndarray | None:
    """The policy's next ``count`` prices, if it can commit to them now.

    Returns ``None`` for history-dependent policies (no ``propose_prices``
    hook, or the hook declines) — the caller must then fall back to the
    sequential round loop.
    """
    planner = getattr(policy, "propose_prices", None)
    if planner is None:
        return None
    planned = planner(history, count)
    if planned is None:
        return None
    prices = np.asarray(planned, dtype=float)
    if prices.shape != (count,):
        raise ConfigurationError(
            f"propose_prices returned shape {prices.shape}, expected ({count},)"
        )
    return prices


def _append_records(history: GameHistory, played: PriceBatchOutcome) -> None:
    """Append one :class:`RoundRecord` per row of a batch-solved evaluation."""
    for offset in range(len(played)):
        history.append(
            RoundRecord(
                round_index=offset,
                price=float(played.prices[offset]),
                demands=tuple(float(b) for b in played.allocations[offset]),
                msp_utility=float(played.msp_utilities[offset]),
            )
        )


def play_policies_stacked(
    markets: Sequence[StackelbergMarket],
    policies: Sequence[PricingPolicy],
    num_rounds: int,
) -> list[tuple[GameHistory, PriceBatchOutcome]]:
    """Play ``num_rounds`` of the pricing game in every market, stacked.

    Pairs ``markets[m]`` with ``policies[m]`` (fresh histories). Every pair
    whose policy commits to its price vector up front joins one
    :meth:`MarketStack.outcomes_stacked` solve over the ``(M, R)`` price
    grid — a whole market sweep's evaluation in a single numpy pass —
    while history-dependent policies fall back to the per-market
    memoised sequential loop. Per pair, histories and outcomes are equal
    (bitwise) to the ``M = 1`` call on that pair alone.

    Raises:
        ConfigurationError: if ``markets`` and ``policies`` differ in
            length, ``num_rounds < 1``, or a policy's ``propose_prices``
            returns the wrong shape.
    """
    if len(markets) != len(policies):
        raise ConfigurationError(
            f"got {len(markets)} markets for {len(policies)} policies"
        )
    if num_rounds < 1:
        raise ConfigurationError(f"num_rounds must be >= 1, got {num_rounds}")
    histories = [GameHistory() for _ in markets]
    outcomes: list[PriceBatchOutcome | None] = [None] * len(markets)
    stackable: list[tuple[int, np.ndarray]] = []
    for i, (market, policy) in enumerate(zip(markets, policies)):
        planned = plan_prices(policy, histories[i], num_rounds)
        if planned is None:
            outcomes[i] = _play_sequential(
                market, policy, num_rounds, histories[i]
            )
        else:
            config = market.config
            stackable.append(
                (i, np.clip(planned, config.unit_cost, config.max_price))
            )
    if stackable:
        indices = [i for i, _ in stackable]
        stack = MarketStack([markets[i] for i in indices])
        stacked = stack.outcomes_stacked(
            np.stack([prices for _, prices in stackable])
        )
        for position, i in enumerate(indices):
            played = stacked.market_rows(position)
            _append_records(histories[i], played)
            outcomes[i] = played
    return list(zip(histories, outcomes))


def _play_sequential(
    market: StackelbergMarket,
    policy: PricingPolicy,
    num_rounds: int,
    history: GameHistory,
) -> PriceBatchOutcome:
    """Round loop with an exact price → outcome memo (market is deterministic)."""
    config = market.config
    cache: dict[float, MarketOutcome] = {}
    outcomes: list[MarketOutcome] = []
    for _ in range(num_rounds):
        raw_price = float(policy.propose_price(history))
        price = float(np.clip(raw_price, config.unit_cost, config.max_price))
        outcome = cache.get(price)
        if outcome is None:
            outcome = market.round_outcome(price)
            cache[price] = outcome
        outcomes.append(outcome)
        history.append(
            RoundRecord(
                round_index=len(history),
                price=price,
                demands=tuple(float(b) for b in outcome.allocations),
                msp_utility=outcome.msp_utility,
            )
        )
    return PriceBatchOutcome.from_outcomes(outcomes)
