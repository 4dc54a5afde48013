"""The live pricing service: queries and updates over a mutable stack.

A long-running MSP answering "what is the optimal migration price for
this market *right now*" while the market state churns under it. The
service owns a :class:`~repro.core.marketstack.MutableMarketStack`, the
:class:`~repro.core.marketstack.MarketStack` that adds the writes: update
events (a VMU joins or leaves, fading drifts, a whole market is replaced)
write exactly their row of the stack's padded columns in place and mark
it dirty, and the first query after any burst of updates runs the
stack's one solve driver, which re-solves only the dirty rows, straight
from those columns — every further query in that micro-window reads the
same cached :class:`~repro.core.marketstack.StackedEquilibria` row for
free. Queries therefore batch naturally: interleave 100 updates and
1 000 queries and the service pays ~(number of update bursts) dirty-row
re-solves, not 1 000.

Every query is timed individually (the solve-triggering query pays the
window's solve), so :meth:`LivePricingService.stats` reports honest
per-query p50/p99 latency and throughput.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.marketstack import MutableMarketStack, StackedEquilibria
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError

__all__ = [
    "FadingDrift",
    "LivePricingService",
    "PriceQuote",
    "Query",
    "ServiceStats",
    "UpdateMarket",
    "VmuJoin",
    "VmuLeave",
    "latency_percentile",
]


@dataclass(frozen=True)
class Query:
    """Ask for market ``market_index``'s current equilibrium quote."""

    market_index: int


@dataclass(frozen=True)
class UpdateMarket:
    """Replace market ``market_index`` wholesale (e.g. demand drift)."""

    market_index: int
    market: StackelbergMarket


@dataclass(frozen=True)
class VmuJoin:
    """``vmu`` joins market ``market_index``."""

    market_index: int
    vmu: VmuProfile


@dataclass(frozen=True)
class VmuLeave:
    """VMU ``vmu_id`` leaves market ``market_index``."""

    market_index: int
    vmu_id: str


@dataclass(frozen=True)
class FadingDrift:
    """Market ``market_index``'s RSU link drifts to ``fading_gain``."""

    market_index: int
    fading_gain: float


@dataclass(frozen=True)
class PriceQuote:
    """One answered query: the market's current equilibrium summary.

    ``feasible=False`` markets quote ``nan`` numerics instead of raising —
    a service does not abort the request loop because one market is
    degenerate right now.
    """

    market_index: int
    feasible: bool
    price: float
    msp_utility: float
    capacity_binding: bool
    price_cap_binding: bool


@dataclass(frozen=True)
class ServiceStats:
    """Service-lifetime counters (see :meth:`LivePricingService.stats`)."""

    queries: int
    updates: int
    solves: int
    rows_resolved: int
    busy_s: float
    qps: float
    p50_ms: float
    p99_ms: float
    max_ms: float


def latency_percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a latency sample.

    Deterministic and interpolation-free: the reported p99 is a latency
    that actually occurred. Empty samples report ``0.0``.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if len(latencies) == 0:
        return 0.0
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float error
    return float(ordered[int(rank) - 1])


class LivePricingService:
    """Serve equilibrium price quotes over live, mutating market state.

    Every answer is bitwise the row a cold
    :meth:`~repro.core.marketstack.MarketStack.equilibria_stacked` of the
    current markets gives (see :class:`MutableMarketStack`).

    Args:
        markets: the initial markets — any iterable of
            :class:`StackelbergMarket` (an immutable
            :class:`~repro.core.marketstack.MarketStack` included), or an
            existing :class:`MutableMarketStack` to serve over directly.
    """

    def __init__(
        self, markets: Iterable[StackelbergMarket] | MutableMarketStack
    ) -> None:
        if isinstance(markets, MutableMarketStack):
            self._stack = markets
        else:
            self._stack = MutableMarketStack(markets)
        self._latencies: list[float] = []
        self._updates = 0
        self._update_s = 0.0

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def stack(self) -> MutableMarketStack:
        """The live market state the service prices over."""
        return self._stack

    @property
    def num_markets(self) -> int:
        """Stack width ``M``."""
        return self._stack.num_markets

    def equilibria(self) -> StackedEquilibria:
        """The current full solution (solving dirty rows if any) — the
        bulk face of :meth:`query`, and the live-vs-cold test hook."""
        return self._stack.equilibria_live()

    # ------------------------------------------------------------------ #
    # the request loop
    # ------------------------------------------------------------------ #
    def query(self, market_index: int) -> PriceQuote:
        """Answer one price query (timed; may trigger a dirty-row solve).

        Raises:
            ConfigurationError: unless ``market_index`` is an ``int`` (not
                ``bool``) with ``0 <= market_index < M`` — the row check
                every update event goes through too.
        """
        start = time.perf_counter()
        index = self._stack.row_index(market_index)
        solved = self.equilibria()
        quote = PriceQuote(
            market_index=index,
            feasible=bool(solved.feasible[index]),
            price=float(solved.prices[index]),
            msp_utility=float(solved.msp_utilities[index]),
            capacity_binding=bool(solved.capacity_binding[index]),
            price_cap_binding=bool(solved.price_cap_binding[index]),
        )
        self._latencies.append(time.perf_counter() - start)
        return quote

    def apply(self, event) -> None:
        """Apply one update event (marks its market's row dirty)."""
        start = time.perf_counter()
        if isinstance(event, UpdateMarket):
            self._stack.update_market(event.market_index, event.market)
        elif isinstance(event, VmuJoin):
            self._stack.join(event.market_index, event.vmu)
        elif isinstance(event, VmuLeave):
            self._stack.leave(event.market_index, event.vmu_id)
        elif isinstance(event, FadingDrift):
            self._stack.set_fading_gain(event.market_index, event.fading_gain)
        else:
            raise ConfigurationError(
                f"unknown service event {type(event).__name__}"
            )
        self._updates += 1
        self._update_s += time.perf_counter() - start

    def serve(self, events: Iterable[object]) -> list[PriceQuote]:
        """Run the request loop over an event stream, in order.

        :class:`Query` events are answered (and their quotes returned, in
        arrival order); everything else is applied as an update.
        Consecutive queries between updates form a micro-window sharing
        one solve — the first query pays it, the rest read cached rows.
        """
        quotes: list[PriceQuote] = []
        for event in events:
            if isinstance(event, Query):
                quotes.append(self.query(event.market_index))
            else:
                self.apply(event)
        return quotes

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def stats(self) -> ServiceStats:
        """Lifetime latency/throughput counters.

        ``qps`` is queries over *busy* time (query + update handling) —
        the rate the service actually sustained while working, independent
        of idle gaps between events.
        """
        query_s = float(sum(self._latencies))
        busy_s = query_s + self._update_s
        queries = len(self._latencies)
        return ServiceStats(
            queries=queries,
            updates=self._updates,
            solves=self._stack.solve_count,
            rows_resolved=self._stack.rows_resolved,
            busy_s=busy_s,
            qps=queries / busy_s if busy_s > 0.0 else 0.0,
            p50_ms=1e3 * latency_percentile(self._latencies, 50.0),
            p99_ms=1e3 * latency_percentile(self._latencies, 99.0),
            max_ms=1e3 * max(self._latencies, default=0.0),
        )
