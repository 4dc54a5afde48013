"""Incentive-mechanism interface: anything that posts prices.

A *pricing policy* observes the public history of the repeated game (past
prices and demand vectors — exactly the incomplete information the paper
grants the MSP) and proposes the next unit price. The analytic equilibrium,
the DRL agent, and all baselines implement this one protocol, so the
experiment harness can sweep them interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError

__all__ = ["PricingPolicy", "RoundRecord", "GameHistory"]


@dataclass(frozen=True)
class RoundRecord:
    """The public outcome of one game round (what the MSP can observe)."""

    round_index: int
    price: float
    demands: tuple[float, ...]
    msp_utility: float


@dataclass
class GameHistory:
    """Append-only public history of a repeated pricing game."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Record a completed round."""
        self.records.append(record)

    def last(self, count: int) -> list[RoundRecord]:
        """The most recent ``count`` records (fewer if history is short).

        Always returns a plain (possibly empty) list: an empty history or
        ``count = 0`` yields ``[]``, never an error — callers must not need
        to guard. ``count`` larger than the history returns everything; a
        negative ``count`` raises :class:`ConfigurationError`.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        return self.records[-count:] if count else []

    @property
    def best_record(self) -> RoundRecord | None:
        """The round with the highest MSP utility (None when empty).

        Single source of truth for :attr:`best_utility` / :attr:`best_price`,
        so the two can never disagree about which round "best" means.
        """
        if not self.records:
            return None
        return max(self.records, key=lambda r: r.msp_utility)

    @property
    def best_utility(self) -> float:
        """Highest MSP utility observed so far (-inf when empty, so it can
        seed a running maximum without a guard)."""
        best = self.best_record
        return float("-inf") if best is None else best.msp_utility

    @property
    def best_price(self) -> float | None:
        """Price that achieved :attr:`best_utility` (None when empty)."""
        best = self.best_record
        return None if best is None else best.price

    def __len__(self) -> int:
        return len(self.records)


@runtime_checkable
class PricingPolicy(Protocol):
    """Anything that can act as the MSP's pricing strategy."""

    def propose_price(self, history: GameHistory) -> float:
        """Return the unit price for the next round given public history."""
        ...

    def reset(self) -> None:
        """Clear internal state before a fresh episode."""
        ...
