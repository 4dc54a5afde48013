"""Live pricing service: incremental vs cold re-solve under churn.

Serves micro-windows of 5 % churn (fading drift + VMU joins) and price
queries over city-grid stacks at M ∈ {64, 1000}, timing the incremental
dirty-row re-solve against a cold full ``equilibria_stacked`` of the same
mutated stack each window. The two are bitwise-equal by construction
(``tests/test_core_marketstack_live.py``), so the comparison is pure
work avoided: ~0.05·M rows solved instead of M.

Acceptance: incremental beats cold by ≥ ``MIN_SPEEDUP`` per window at
both sizes. The floor is about half the median observed at M = 64, the
tighter size (5.1× over three runs on a 2-core x86 box; M = 1000 runs
near 10×). Evidence — per-window solve times, p50/p99 query latency, QPS,
and peak RSS — lands in ``benchmarks/results/pricing_service.txt`` and
the machine-readable ``pricing_service.json``.
"""

import resource
import time

import numpy as np
import pytest

from repro.core import MarketStack
from repro.entities.vmu import VmuProfile
from repro.mobility.citygrid import CityGridSpec, city_markets
from repro.service import LivePricingService, Query
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

MARKET_COUNTS = (64, 1000)
CHURN = 0.05
WINDOWS = {64: 10, 1000: 5}
QUERIES_PER_WINDOW = 50
MIN_SPEEDUP = 2.5


def churn_profile(num_markets):
    """Serve churn windows; time incremental vs cold solve per window."""
    spec = CityGridSpec.for_markets(num_markets, seed=7)
    service = LivePricingService(city_markets(spec))
    service.equilibria()  # cold start outside the timed windows
    rng = np.random.default_rng(num_markets)
    per_window = max(1, round(CHURN * num_markets))

    incremental_s = 0.0
    cold_s = 0.0
    windows = WINDOWS[num_markets]
    for window in range(windows):
        targets = rng.choice(num_markets, size=per_window, replace=False)
        for position, target in enumerate(targets):
            if position % 2 == 0:
                service.stack.set_fading_gain(
                    int(target), float(rng.uniform(0.2, 2.0))
                )
            else:
                service.stack.join(
                    int(target),
                    VmuProfile(
                        f"bench-{window}-{position}",
                        data_size_mb=float(rng.uniform(50.0, 400.0)),
                        immersion_coef=float(rng.uniform(1.0, 9.0)),
                    ),
                )
        start = time.perf_counter()
        live = service.equilibria()  # dirty-row sub-stack solve + splice
        incremental_s += time.perf_counter() - start

        cold_stack = MarketStack(list(service.stack.markets))
        start = time.perf_counter()
        cold = cold_stack.equilibria_stacked()
        cold_s += time.perf_counter() - start
        assert np.array_equal(live.prices, cold.prices, equal_nan=True)

        service.serve(
            [Query(int(i)) for i in rng.integers(0, num_markets, size=QUERIES_PER_WINDOW)]
        )

    stats = service.stats()
    return {
        "markets": num_markets,
        "windows": windows,
        "dirty_rows_per_window": per_window,
        "queries": stats.queries,
        "updates": stats.updates,
        "rows_resolved": service.stack.rows_resolved,
        "incremental_s_per_window": incremental_s / windows,
        "cold_s_per_window": cold_s / windows,
        "speedup": cold_s / incremental_s,
        "markets_per_s": num_markets * windows / cold_s,
        "qps": stats.qps,
        "p50_ms": stats.p50_ms,
        "p99_ms": stats.p99_ms,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
    }


def test_incremental_beats_cold_per_window(record_table, record_json):
    table = Table(
        headers=(
            "markets",
            "dirty/window",
            "incr_s/window",
            "cold_s/window",
            "speedup",
            "qps",
            "p50_ms",
            "p99_ms",
            "ru_maxrss_mb",
        ),
        title=f"Live pricing service — {CHURN:.0%} churn per window",
    )
    profiles = []
    for count in MARKET_COUNTS:
        profile = churn_profile(count)
        profiles.append(profile)
        table.add_row(*(profile[key] for key in (
            "markets", "dirty_rows_per_window", "incremental_s_per_window",
            "cold_s_per_window", "speedup", "qps", "p50_ms", "p99_ms",
            "ru_maxrss_mb",
        )))
    record_table("pricing_service", table)
    record_json(
        "pricing_service",
        {"benchmark": "pricing_service", "churn": CHURN, "profiles": profiles},
    )

    for profile in profiles:
        assert profile["speedup"] >= MIN_SPEEDUP, profile
        assert profile["p99_ms"] > 0.0
        assert profile["qps"] > 0.0
