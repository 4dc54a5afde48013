"""City-scale equilibrium sweep: 10k+ RSU-grid markets in bounded memory.

The ``city_sweep`` experiment solves the Stackelberg equilibrium of every
market of a city street grid (:mod:`repro.mobility.citygrid`) through the
stacked solver
(:meth:`repro.core.marketstack.MarketStack.equilibria_stacked`), so
``run city_sweep --param m=10000`` completes with peak memory bounded by
one job's markets, not by ``M``.

Job decomposition
-----------------
``plan()`` partitions the market index range into ranges of
:data:`JOB_MARKETS` markets (the last takes the remainder) and emits one
``city_chunk`` job per range, so ``--workers N`` shares
``ceil(M / JOB_MARKETS)`` jobs. The job size is fixed, not derived from
the solve's memory model, which sizes its own chunks inside each job. A
job's payload is just the :class:`~repro.mobility.citygrid.CityGridSpec`
payload plus ``[start, stop)`` — a dozen scalars, not 10k market payloads
— because every grid market is a pure function of ``(spec, index)``. Each
job rebuilds only its own slice of the city and solves it as its own
stack, so at most one job's markets are live at a time; per-market
equilibria are invariant to which stack a market is solved inside
(row-locality plus padding-width invariance, pinned by the property
suite), so the assembled result equals one solve of the whole city
bitwise.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.marketstack import MarketStack
from repro.experiments import api
from repro.experiments.api import ExperimentPlan, ParamSpec
from repro.experiments.scheduler import solve_job
# city_markets is not called here; perfbench/tracing.py wraps it under
# this module's name, so it stays importable from here.
from repro.mobility.citygrid import CityGridSpec, city_columns, city_markets  # noqa: F401
from repro.utils.stats import SummaryStats, summarize
from repro.utils.tables import Table

__all__ = [
    "CityScaleResult",
    "run_city_chunk_job",
    "CITY_SWEEP",
    "JOB_MARKETS",
]

JOB_MARKETS = 1024
"""Markets per ``city_chunk`` job (the last job takes the remainder)."""


@dataclass
class CityScaleResult:
    """Equilibrium summary of one city grid (NaN-free, payload-friendly)."""

    num_markets: int
    rows: int
    cols: int
    chunk_markets: int
    """Markets per ``city_chunk`` job (:data:`JOB_MARKETS`)."""
    feasible: int
    capacity_binding: int
    price_cap_binding: int
    price_stats: SummaryStats
    """Equilibrium-price statistics over the feasible markets."""
    utility_stats: SummaryStats
    """MSP-utility statistics over the feasible markets."""
    total_bandwidth: float
    """Σ over feasible markets of Σ_n b*_n (natural units)."""

    def table(self) -> Table:
        """Printable summary."""
        table = Table(
            headers=("metric", "value"),
            title=(
                f"City sweep — {self.num_markets} markets on a "
                f"{self.rows}x{self.cols} RSU grid "
                f"({self.chunk_markets} markets/chunk)"
            ),
        )
        table.add_row("feasible markets", self.feasible)
        table.add_row("capacity binding", self.capacity_binding)
        table.add_row("price-cap binding", self.price_cap_binding)
        table.add_row("mean p*", self.price_stats.mean)
        table.add_row("mean MSP utility", self.utility_stats.mean)
        table.add_row("total bandwidth (natural)", self.total_bandwidth)
        return table


CITY_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec("m", "int?", None, "number of markets (default 64; derives a near-square grid unless rows/cols given)"),
    ParamSpec("rows", "int?", None, "explicit grid rows (needs cols)"),
    ParamSpec("cols", "int?", None, "explicit grid cols (needs rows)"),
    ParamSpec("block_m", "float", 400.0, "street-block edge length (m)"),
    ParamSpec("vehicles_per_cell", "float", 400.0, "vehicle stream served per RSU cell"),
    ParamSpec("max_vmus", "int", 6, "max VMUs per market (population drawn in [1, max])"),
    ParamSpec("target_aotm", "float", 0.05, "AoTM target the capacity sizing aims at (s)"),
    ParamSpec("seed", "int", 0, "root seed of the per-index market draws"),
)


def _city_spec(params: Mapping) -> CityGridSpec:
    num_markets = params["m"]
    if num_markets is None and (
        params["rows"] is None or params["cols"] is None
    ):
        num_markets = 64
    return CityGridSpec.for_markets(
        num_markets,
        rows=params["rows"],
        cols=params["cols"],
        block_m=float(params["block_m"]),
        vehicles_per_cell=float(params["vehicles_per_cell"]),
        max_vmus=int(params["max_vmus"]),
        target_aotm=float(params["target_aotm"]),
        seed=int(params["seed"]),
    )


def _pack(
    spec: CityGridSpec, chunk_markets: int, cells: Mapping
) -> CityScaleResult:
    feasible = [bool(flag) for flag in cells["feasible"]]
    prices = [
        float(p) for p, ok in zip(cells["prices"], feasible) if ok
    ]
    utilities = [
        float(u) for u, ok in zip(cells["msp_utilities"], feasible) if ok
    ]
    total_bandwidth = sum(
        float(b) for b, ok in zip(cells["total_bandwidths"], feasible) if ok
    )
    return CityScaleResult(
        num_markets=spec.num_markets,
        rows=spec.rows,
        cols=spec.cols,
        chunk_markets=chunk_markets,
        feasible=sum(feasible),
        capacity_binding=sum(
            bool(flag) for flag in cells["capacity_binding"]
        ),
        price_cap_binding=sum(
            bool(flag) for flag in cells["price_cap_binding"]
        ),
        price_stats=summarize(prices),
        utility_stats=summarize(utilities),
        total_bandwidth=float(total_bandwidth),
    )


_CELL_KEYS = (
    "prices",
    "msp_utilities",
    "total_bandwidths",
    "capacity_binding",
    "price_cap_binding",
    "feasible",
)


def run_city_chunk_job(payload: Mapping) -> dict:
    """Job kind ``city_chunk``: solve markets ``[start, stop)`` of a city.

    Rebuilds its index slice's columns from the spec payload (pure
    function of the spec — see the citygrid determinism contract), stacks
    them without building any market object, solves them as one stack,
    and returns the per-market equilibrium arrays (``execute_job`` turns
    each into a JSON list in one ``tolist()``). Infeasible markets ride
    the JSON wire as NaN prices/utilities with ``feasible`` false.
    """
    spec = CityGridSpec.from_payload(payload["spec"])
    start, stop = int(payload["start"]), int(payload["stop"])
    stack = MarketStack.from_columns(city_columns(spec, start, stop))
    solved = stack.equilibria_stacked()
    return {key: getattr(solved, key) for key in _CELL_KEYS}


def _city_plan(params: Mapping) -> ExperimentPlan:
    spec = _city_spec(params)
    chunk = min(JOB_MARKETS, spec.num_markets)
    spec_payload = spec.to_payload()
    jobs = [
        solve_job(
            "city_chunk",
            {
                "spec": spec_payload,
                "start": start,
                "stop": min(start + chunk, spec.num_markets),
            },
        )
        for start in range(0, spec.num_markets, chunk)
    ]
    return ExperimentPlan(
        "city_sweep",
        dict(params),
        jobs,
        context={"spec": spec, "chunk_markets": chunk},
    )


def _city_assemble(plan: ExperimentPlan, results: list) -> CityScaleResult:
    cells = {key: [] for key in _CELL_KEYS}
    for payload in results:
        for key in _CELL_KEYS:
            cells[key].extend(payload[key])
    return _pack(plan.context["spec"], plan.context["chunk_markets"], cells)


CITY_SWEEP = api.register(
    api.ExperimentSpec(
        name="city_sweep",
        description=(
            "City-scale equilibrium sweep — one Stackelberg market per "
            "RSU-grid junction, solved as one city_chunk job per "
            f"{JOB_MARKETS} markets (markets-per-second at M = 10k+)"
        ),
        params=CITY_PARAMS,
        result_type=CityScaleResult,
        plan=_city_plan,
        assemble=_city_assemble,
    )
)
