"""Content-keyed, invalidation-aware equilibrium cache.

The immutable :class:`~repro.core.marketstack.MarketStack` memoises its
solve *per stack object* — two overlapping stacks (a robustness sweep
re-solving the same base market under 20 fading draws, an oracle grid
rebuilt after one cell changed) share nothing. This cache keys each
*market* by its exact content instead: the canonical-JSON form of
:func:`repro.experiments.scheduler.market_to_payload`, whose float fields
round-trip bit-exactly, so two markets get the same key iff a stacked
solve would hand them bitwise the same row. Lookups that miss are solved
together as one sub-stack through the ordinary stacked path — row-locality
makes the grouping invisible — and every market seen once is free in every
later stack that contains it, whatever stack object it arrives in.

Content keys cannot go stale (a mutated market *is* a different key), so
"invalidation" here means dropping rows to bound memory or to force a
re-solve; for in-place mutable state use
:class:`~repro.core.marketstack.MutableMarketStack`, whose dirty sets are
the index-based face of the same idea.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.marketstack import MarketStack
from repro.core.stackelberg import StackelbergEquilibrium, StackelbergMarket
from repro.errors import InfeasibleMarketError

__all__ = ["EquilibriumCache", "shared_cache"]


@dataclass(frozen=True)
class _Infeasible:
    """Negative-result marker: the market admits no profitable trade."""

    unit_cost: float


class EquilibriumCache:
    """Per-market equilibrium rows cached across stacks by market content.

    One instance per workload (or the process-wide :func:`shared_cache`);
    ``refine`` is fixed per cache so every row comes from the same solve
    mode. Infeasible markets are cached too — repeated sweeps do not
    re-solve a known-degenerate cell just to re-raise.
    """

    def __init__(self, *, refine: bool = True) -> None:
        self._refine = bool(refine)
        self._rows: dict[str, StackelbergEquilibrium | _Infeasible] = {}
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def refine(self) -> bool:
        """The solve mode every cached row was produced under."""
        return self._refine

    @property
    def hits(self) -> int:
        """Market lookups answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Market lookups that required a solve."""
        return self._misses

    @staticmethod
    def market_key(market: StackelbergMarket) -> str:
        """The market's content key: canonical JSON of its exact-float
        wire payload (two markets share a key iff their solves share
        bits)."""
        # Lazy import: repro.experiments imports the service package, so a
        # top-level import here would be circular.
        from repro.experiments.scheduler import market_to_payload

        return json.dumps(
            market_to_payload(market), sort_keys=True, separators=(",", ":")
        )

    def invalidate(self, market: StackelbergMarket) -> bool:
        """Drop ``market``'s cached row; True if one was present."""
        return self._rows.pop(self.market_key(market), None) is not None

    def clear(self) -> None:
        """Drop every cached row and reset the hit/miss counters."""
        self._rows.clear()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def solve(
        self,
        markets: Sequence[StackelbergMarket],
        *,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
    ) -> None:
        """Ensure every market's row is cached.

        The unseen markets (deduplicated by key) are solved together as
        one sub-stack — at the chunk knobs' budget, or the default one —
        and their scalar rows stored. Already-cached markets cost a key computation only.
        """
        keys = [self.market_key(m) for m in markets]
        unseen: dict[str, StackelbergMarket] = {}
        for key, market in zip(keys, markets):
            if key not in self._rows and key not in unseen:
                unseen[key] = market
        self._misses += len(unseen)
        self._hits += len(keys) - len(unseen)
        if not unseen:
            return
        solved = MarketStack(list(unseen.values())).equilibria_stacked_chunked(
            refine=self._refine, chunk_size=chunk_size, chunk_bytes=chunk_bytes
        )
        for row, key in enumerate(unseen):
            if bool(solved.feasible[row]):
                self._rows[key] = solved.equilibrium(row)
            else:
                self._rows[key] = _Infeasible(float(solved.unit_costs[row]))

    def equilibrium(self, market: StackelbergMarket) -> StackelbergEquilibrium:
        """``market``'s equilibrium, solving on a miss.

        Raises:
            InfeasibleMarketError: if the market admits no profitable
                trade — the identical semantics (and message) of
                :meth:`StackedEquilibria.equilibrium`.
        """
        self.solve([market])
        return self._row(self.market_key(market))

    def equilibria(
        self,
        markets: Sequence[StackelbergMarket],
        *,
        chunk_size: int | None = None,
        chunk_bytes: int | None = None,
    ) -> list[StackelbergEquilibrium]:
        """Every market's equilibrium, solving the misses as one sub-stack.

        Raises:
            InfeasibleMarketError: if any member market is infeasible
                (matching a loop of per-market ``equilibrium()`` calls).
        """
        self.solve(markets, chunk_size=chunk_size, chunk_bytes=chunk_bytes)
        return [self._row(self.market_key(m)) for m in markets]

    def _row(self, key: str) -> StackelbergEquilibrium:
        row = self._rows[key]
        if isinstance(row, _Infeasible):
            raise InfeasibleMarketError(
                "every VMU's drop-out threshold is at or below the unit "
                f"cost C={row.unit_cost}; no profitable trade exists"
            )
        return row


_SHARED: EquilibriumCache | None = None


def shared_cache() -> EquilibriumCache:
    """The process-wide refined-solve cache.

    Shared by repeated robustness sweeps (``reuse_cache=True``) and any
    caller that wants cross-stack reuse without threading a cache object
    through spec parameters (which must stay JSON-serialisable).
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = EquilibriumCache(refine=True)
    return _SHARED
