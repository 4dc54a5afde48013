"""``repro.service`` — the low-latency live pricing service.

The "millions of users" workload in miniature: a long-running
:class:`LivePricingService` holds a mutable stack of markets, applies
point updates (VMU churn, fading drift, demand shifts) by dirtying
exactly the touched rows, and answers price queries from an
incrementally maintained :class:`~repro.core.marketstack.StackedEquilibria`
— bitwise-equal to a cold full solve at every step, at a fraction of the
work.
"""

from repro.service.pricing import (
    FadingDrift,
    LivePricingService,
    PriceQuote,
    Query,
    ServiceStats,
    UpdateMarket,
    VmuJoin,
    VmuLeave,
    latency_percentile,
)

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
