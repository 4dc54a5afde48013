"""The ``pricing_service`` experiment: live-service churn scenarios.

Replays a deterministic stream of update events and price queries against
a :class:`~repro.service.LivePricingService` over a city-grid stack
(:mod:`repro.mobility.citygrid`), so ``run pricing_service --param m=1000
--param churn=0.05`` measures the incremental dirty-row solve under
realistic churn — join/leave storms, channel-fading drift, rush-hour
demand surges — with the usual fan-out/cache/resume.

Determinism: the initial markets and the whole event stream are a pure
function of the validated parameters (per-index city seeding plus one
``default_rng([seed, ...])`` stream for the churn draws), so the
``pricing_service`` job recomputes the identical scenario in a worker
process. The result's counting fields (queries, updates, rows resolved,
price checksums) are therefore bitwise-reproducible; the latency fields
(p50/p99/QPS) are measurements and excluded from result equality
(``compare=False``).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.channel.fading import RayleighFading
from repro.entities.vmu import VmuProfile, sample_population
from repro.errors import ConfigurationError
from repro.experiments import api
from repro.experiments.api import ExperimentPlan, ParamSpec
from repro.experiments.scheduler import solve_job
from repro.mobility.citygrid import CityGridSpec, city_markets
from repro.service import (
    FadingDrift,
    LivePricingService,
    Query,
    UpdateMarket,
    VmuJoin,
    VmuLeave,
)
from repro.utils.tables import Table

__all__ = [
    "PricingServiceResult",
    "run_pricing_service_job",
    "PRICING_SERVICE",
    "SCENARIOS",
]

SCENARIOS = ("mixed", "join_leave", "fading", "rush_hour")
"""Churn scenarios: VMU join/leave storms, channel-fading drift,
rush-hour demand surges, or a round-robin mix of all three."""


@dataclass
class PricingServiceResult:
    """One served churn scenario: work counters plus latency telemetry.

    Every field except the latency block is a pure function of the
    parameters (the event stream is deterministic); the latency fields
    are wall-clock measurements and excluded from equality.
    """

    num_markets: int
    windows: int
    scenario: str
    queries: int
    updates: int
    solves: int
    """Stacked solves the service ran (1 cold + 1 per dirty window)."""
    rows_resolved: int
    """Market rows actually solved — a cold service would pay
    ``solves · num_markets``."""
    feasible: int
    """Feasible markets in the final state."""
    final_mean_price: float
    """Mean equilibrium price over the final state's feasible markets."""
    quoted_feasible: int
    """Queries answered with a feasible quote."""
    quoted_price_sum: float
    """Σ of feasible quoted prices — the determinism checksum of every
    answer the service gave."""
    qps: float = field(compare=False, default=0.0)
    p50_ms: float = field(compare=False, default=0.0)
    p99_ms: float = field(compare=False, default=0.0)
    busy_s: float = field(compare=False, default=0.0)

    def table(self) -> Table:
        """Printable summary."""
        table = Table(
            headers=("metric", "value"),
            title=(
                f"Pricing service — {self.num_markets} markets, "
                f"{self.windows} windows of {self.scenario} churn"
            ),
        )
        table.add_row("queries answered", self.queries)
        table.add_row("updates applied", self.updates)
        table.add_row("stacked solves", self.solves)
        table.add_row("rows re-solved", self.rows_resolved)
        table.add_row(
            "rows a cold service would solve", self.solves * self.num_markets
        )
        table.add_row("feasible markets (final)", self.feasible)
        table.add_row("mean p* (final)", self.final_mean_price)
        table.add_row("QPS (busy)", self.qps)
        table.add_row("p50 latency (ms)", self.p50_ms)
        table.add_row("p99 latency (ms)", self.p99_ms)
        return table


SERVICE_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec("m", "int", 64, "number of live markets (city-grid junctions)"),
    ParamSpec("windows", "int", 20, "update/query micro-windows to serve"),
    ParamSpec("queries_per_window", "int", 32, "price queries per window"),
    ParamSpec("churn", "float", 0.05, "fraction of markets updated per window (>= 1 market)"),
    ParamSpec("scenario", "str", "mixed", "churn scenario: mixed | join_leave | fading | rush_hour"),
    ParamSpec("rush_amplitude", "float", 0.5, "peak demand surge of the rush_hour scenario (fraction of base vehicles/cell)"),
    ParamSpec("max_vmus", "int", 6, "max VMUs per market (population drawn in [1, max])"),
    ParamSpec("vehicles_per_cell", "float", 400.0, "base vehicle stream served per RSU cell"),
    ParamSpec("seed", "int", 0, "root seed of the city draw and the churn stream"),
)


def _city_spec(params: Mapping) -> CityGridSpec:
    return CityGridSpec.for_markets(
        int(params["m"]),
        max_vmus=int(params["max_vmus"]),
        vehicles_per_cell=float(params["vehicles_per_cell"]),
        seed=int(params["seed"]),
    )


def _churn_event(
    kind: str,
    target: int,
    *,
    spec: CityGridSpec,
    populations: list[list[str]],
    rng: np.random.Generator,
    rush_factor: float,
    serial: int,
):
    """One update event of the stream (pure function of the rng stream)."""
    if kind == "join_leave":
        # Leave when the market can spare a VMU and the coin says so;
        # otherwise a fresh uniquely-named VMU joins.
        if len(populations[target]) > 1 and rng.uniform() < 0.5:
            victim = int(rng.integers(len(populations[target])))
            vmu_id = populations[target].pop(victim)
            return VmuLeave(target, vmu_id)
        drawn = sample_population(1, seed=rng)[0]
        vmu = VmuProfile(
            vmu_id=f"live-{serial}",
            data_size_mb=drawn.data_size_mb,
            immersion_coef=drawn.immersion_coef,
        )
        populations[target].append(vmu.vmu_id)
        return VmuJoin(target, vmu)
    if kind == "fading":
        gain = float(max(RayleighFading().sample(rng, size=1)[0], 1e-6))
        return FadingDrift(target, gain)
    if kind == "rush_hour":
        surged = dataclasses.replace(
            spec, vehicles_per_cell=spec.vehicles_per_cell * rush_factor
        )
        market = city_markets(surged, target, target + 1)[0]
        populations[target] = [v.vmu_id for v in market.vmus]
        return UpdateMarket(target, market)
    raise ConfigurationError(
        f"unknown scenario {kind!r}; expected one of {SCENARIOS}"
    )


def _build_scenario(params: Mapping):
    """The initial markets and the full event stream for one run."""
    scenario = str(params["scenario"])
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
        )
    churn = float(params["churn"])
    if churn < 0.0:
        raise ConfigurationError(f"churn must be >= 0, got {churn}")
    windows = int(params["windows"])
    queries_per_window = int(params["queries_per_window"])
    if windows < 1 or queries_per_window < 1:
        raise ConfigurationError(
            "windows and queries_per_window must be >= 1, got "
            f"{windows} and {queries_per_window}"
        )
    spec = _city_spec(params)
    markets = city_markets(spec)
    num_markets = spec.num_markets
    populations = [[v.vmu_id for v in market.vmus] for market in markets]
    rng = np.random.default_rng([int(params["seed"]), 0x5E21])
    updates_per_window = max(1, round(churn * num_markets))
    rush_amplitude = float(params["rush_amplitude"])
    rotation = ("join_leave", "fading", "rush_hour")
    events: list[object] = []
    serial = 0
    for window in range(windows):
        rush_factor = 1.0 + rush_amplitude * math.sin(
            math.pi * (window + 1) / windows
        )
        targets = rng.choice(
            num_markets, size=min(updates_per_window, num_markets),
            replace=False,
        )
        for position, target in enumerate(targets):
            kind = (
                rotation[(window + position) % len(rotation)]
                if scenario == "mixed"
                else scenario
            )
            events.append(
                _churn_event(
                    kind,
                    int(target),
                    spec=spec,
                    populations=populations,
                    rng=rng,
                    rush_factor=rush_factor,
                    serial=serial,
                )
            )
            serial += 1
        for index in rng.integers(0, num_markets, size=queries_per_window):
            events.append(Query(int(index)))
    return markets, events


def _run_service(params: Mapping) -> PricingServiceResult:
    markets, events = _build_scenario(params)
    service = LivePricingService(markets)
    quotes = service.serve(events)
    stats = service.stats()
    solved = service.equilibria()
    feasible = int(solved.feasible.sum())
    final_mean_price = (
        float(solved.prices[solved.feasible].mean()) if feasible else 0.0
    )
    quoted = [quote for quote in quotes if quote.feasible]
    return PricingServiceResult(
        num_markets=int(params["m"]),
        windows=int(params["windows"]),
        scenario=str(params["scenario"]),
        queries=stats.queries,
        updates=stats.updates,
        solves=stats.solves,
        rows_resolved=stats.rows_resolved,
        feasible=feasible,
        final_mean_price=final_mean_price,
        quoted_feasible=len(quoted),
        quoted_price_sum=float(sum(quote.price for quote in quoted)),
        qps=stats.qps,
        p50_ms=stats.p50_ms,
        p99_ms=stats.p99_ms,
        busy_s=stats.busy_s,
    )


def run_pricing_service_job(payload: Mapping) -> dict:
    """Job kind ``pricing_service``: serve one churn scenario end to end.

    The payload is the validated parameter dict (all JSON scalars). The
    scenario replays identically in any process, so every counting field
    of the result is bitwise-equal to an in-process run; latency fields are
    re-measured wherever the job runs.
    """
    return api.result_to_payload(_run_service(payload))


def _plan(params: Mapping) -> ExperimentPlan:
    return ExperimentPlan(
        "pricing_service", dict(params), [solve_job("pricing_service", params)]
    )


def _assemble(plan: ExperimentPlan, results: list) -> PricingServiceResult:
    return api.result_from_payload(PricingServiceResult, results[0])


PRICING_SERVICE = api.register(
    api.ExperimentSpec(
        name="pricing_service",
        description=(
            "Live pricing service under churn — incremental dirty-row "
            "re-solve over a mutable city-grid stack (join/leave storms, "
            "fading drift, rush-hour demand; p50/p99 latency and QPS)"
        ),
        params=SERVICE_PARAMS,
        result_type=PricingServiceResult,
        plan=_plan,
        assemble=_assemble,
    )
)
