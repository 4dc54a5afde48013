"""Robustness experiments beyond the paper's figures.

The paper evaluates one radio operating point (d = 500 m, no fading) and
one population draw. These sweeps probe how the equilibrium — and hence
everything plotted in Fig. 3 — shifts when the physical layer or the
population moves:

- :func:`run_distance_sweep` — RSU separation d: lower spectral
  efficiency raises AoTM and reshapes prices (`p* ∝ sqrt(SE)`).
- :func:`run_fading_sweep` — Monte-Carlo over fading draws: equilibrium
  price/utility distributions under Rayleigh/Rician/shadowing channels.
- :func:`run_population_sweep` — multiple random population draws from
  the paper's parameter ranges with multi-seed summary statistics.

Every sweep builds its whole market grid up front and solves it as one
:meth:`repro.core.marketstack.MarketStack.equilibria_stacked` pass —
bitwise-equal to the historical per-market ``equilibrium()`` loops. Pass a
:class:`repro.experiments.scheduler.JobScheduler` to any sweep and each
grid cell becomes one ``equilibrium_cell`` job instead — cached, resumable,
fan-out-able across processes, and still bitwise-equal (the scalar
equilibrium *is* the ``M = 1`` stacked solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.fading import FadingModel, RayleighFading
from repro.channel.link import paper_link
from repro.core.marketstack import MarketStack
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.experiments import api
from repro.experiments.api import ExperimentPlan, ParamSpec
from repro.experiments.scheduler import Job, JobScheduler, market_to_payload
from repro.service.cache import EquilibriumCache, shared_cache
from repro.utils.rng import SeedLike, as_generator
from repro.utils.stats import SummaryStats, summarize
from repro.utils.tables import Table

__all__ = [
    "DistanceSweepResult",
    "run_distance_sweep",
    "FadingSweepResult",
    "run_fading_sweep",
    "PopulationSweepResult",
    "run_population_sweep",
    "DISTANCE_SWEEP",
    "FADING_SWEEP",
    "POPULATION_SWEEP",
]


def _solve_grid(
    markets: list[StackelbergMarket],
    *,
    chunk_size: int | None = None,
    chunk_bytes: int | None = None,
    cache: "EquilibriumCache | None" = None,
) -> list[tuple[float, float]]:
    """Per-market ``(price, msp_utility)`` equilibria for one sweep grid:
    one stacked solve over the whole grid (the specs' direct path; the
    scheduled path runs one ``equilibrium_cell`` job per market instead —
    same numbers, scalar equilibrium == ``M = 1`` stacked solve, pinned
    in ``tests/test_core_equilibria_stacked.py``). The chunk knobs set the
    solve's memory budget (unset: the default one) — same bits at any
    budget. With ``cache``
    set, rows come from the content-keyed
    :class:`~repro.service.cache.EquilibriumCache` instead: only markets
    the cache has never seen are solved (as one sub-stack), so repeated
    sweeps over overlapping grids reuse every clean row — still the same
    bits, because per-market equilibria are invariant to which stack a
    market is solved inside."""
    if cache is not None:
        rows = cache.equilibria(
            markets, chunk_size=chunk_size, chunk_bytes=chunk_bytes
        )
        return [(row.price, row.msp_utility) for row in rows]
    solved = MarketStack(markets).equilibria_stacked_chunked(
        chunk_size=chunk_size, chunk_bytes=chunk_bytes
    )
    cells = []
    for m in range(len(markets)):
        equilibrium = solved.equilibrium(m)
        cells.append((equilibrium.price, equilibrium.msp_utility))
    return cells


def _solve_grid_params(params, markets) -> list[tuple[float, float]]:
    """The direct path of a sweep spec carrying :data:`api.CHUNK_PARAMS`
    and the ``reuse_cache`` flag (rows via the process-wide
    :func:`repro.service.cache.shared_cache` when set)."""
    return _solve_grid(
        markets,
        chunk_size=params["chunk_size"],
        chunk_bytes=params["chunk_bytes"],
        cache=shared_cache() if params.get("reuse_cache") else None,
    )


CACHE_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec(
        "reuse_cache",
        "bool",
        False,
        "serve grid cells from the process-wide content-keyed equilibrium "
        "cache (direct path; repeated overlapping sweeps skip every "
        "already-solved market — same bits)",
    ),
)


def _grid_jobs(markets: list[StackelbergMarket]) -> list[Job]:
    """One ``equilibrium_cell`` job per market of a sweep grid."""
    return [
        Job("equilibrium_cell", {"market": market_to_payload(market)})
        for market in markets
    ]


def _cells_from_payloads(payloads: list) -> list[tuple[float, float]]:
    return [
        (float(payload["price"]), float(payload["msp_utility"]))
        for payload in payloads
    ]


@dataclass
class DistanceSweepResult:
    """Equilibrium vs RSU separation."""

    distances_m: tuple[float, ...]
    spectral_efficiencies: list[float] = field(default_factory=list)
    prices: list[float] = field(default_factory=list)
    msp_utilities: list[float] = field(default_factory=list)

    def table(self) -> Table:
        """Printable sweep table."""
        table = Table(
            headers=("d (m)", "SE (bit/s/Hz)", "p*", "MSP utility"),
            title="Robustness — equilibrium vs RSU separation",
        )
        for row in zip(
            self.distances_m, self.spectral_efficiencies, self.prices,
            self.msp_utilities,
        ):
            table.add_row(*row)
        return table


DEFAULT_DISTANCES = (250.0, 500.0, 1000.0, 2000.0, 4000.0)


def _distance_markets(params) -> list[StackelbergMarket]:
    vmus = paper_fig2_population()
    return [
        StackelbergMarket(vmus, link=paper_link().with_distance(d))
        for d in params["distances_m"]
    ]


def _distance_pack(params, markets, cells) -> DistanceSweepResult:
    result = DistanceSweepResult(distances_m=tuple(params["distances_m"]))
    for market, (price, msp_utility) in zip(markets, cells):
        result.spectral_efficiencies.append(market.spectral_efficiency)
        result.prices.append(price)
        result.msp_utilities.append(msp_utility)
    return result


def _distance_plan(params) -> ExperimentPlan:
    markets = _distance_markets(params)
    return ExperimentPlan(
        "distance_sweep",
        dict(params),
        _grid_jobs(markets),
        context={"markets": markets},
    )


def _distance_assemble(plan: ExperimentPlan, results: list) -> DistanceSweepResult:
    return _distance_pack(
        plan.params, plan.context["markets"], _cells_from_payloads(results)
    )


def _distance_direct(params) -> DistanceSweepResult:
    markets = _distance_markets(params)
    return _distance_pack(params, markets, _solve_grid_params(params, markets))


DISTANCE_SWEEP = api.register(
    api.ExperimentSpec(
        name="distance_sweep",
        description=(
            "Robustness — Stackelberg equilibrium vs RSU separation d "
            "(spectral efficiency, price, MSP utility per distance)"
        ),
        params=(
            ParamSpec("distances_m", "floats", DEFAULT_DISTANCES, "RSU separations to sweep (m)"),
        ) + api.CHUNK_PARAMS + CACHE_PARAMS,
        result_type=DistanceSweepResult,
        plan=_distance_plan,
        assemble=_distance_assemble,
        direct=_distance_direct,
    )
)


def run_distance_sweep(
    distances_m: tuple[float, ...] = DEFAULT_DISTANCES,
    *,
    chunk_size: int | None = None,
    chunk_bytes: int | None = None,
    reuse_cache: bool = False,
    scheduler: JobScheduler | None = None,
) -> DistanceSweepResult:
    """Solve the paper's 2-VMU market across RSU separations.

    Thin shim over the ``distance_sweep`` spec: without a scheduler the
    swept markets form one :class:`MarketStack`, so every separation's
    equilibrium comes out of a single stacked solve; with one, each
    separation is one cached ``equilibrium_cell`` job.
    """
    return api.run_experiment(
        DISTANCE_SWEEP,
        {
            "distances_m": distances_m,
            "chunk_size": chunk_size,
            "chunk_bytes": chunk_bytes,
            "reuse_cache": reuse_cache,
        },
        scheduler=scheduler,
    )


@dataclass
class FadingSweepResult:
    """Equilibrium distribution under a stochastic channel."""

    price_stats: SummaryStats
    utility_stats: SummaryStats
    prices: list[float]
    utilities: list[float]

    def table(self) -> Table:
        """Printable summary."""
        table = Table(
            headers=("metric", "mean", "ci_low", "ci_high", "n"),
            title="Robustness — equilibrium under channel fading",
        )
        for name, stats in (
            ("p*", self.price_stats),
            ("MSP utility", self.utility_stats),
        ):
            table.add_row(
                name, stats.mean, stats.ci_low, stats.ci_high, stats.count
            )
        return table


def _fading_markets(params) -> list[StackelbergMarket]:
    draws = int(params["draws"])
    if draws < 2:
        raise ValueError(f"draws must be >= 2, got {draws}")
    fading = (
        params["fading"] if params["fading"] is not None else RayleighFading()
    )
    rng = as_generator(params["seed"])
    vmus = paper_fig2_population()
    gains = fading.sample(rng, size=draws)
    # The gains are drawn up front in this process, so the market grid is
    # a pure function of (fading, draws, seed) and each cell's job spec is
    # fully determined.
    return [
        StackelbergMarket(
            vmus, link=paper_link().with_fading_gain(float(max(gain, 1e-6)))
        )
        for gain in gains
    ]


def _fading_pack(cells) -> FadingSweepResult:
    prices = [price for price, _ in cells]
    utilities = [utility for _, utility in cells]
    return FadingSweepResult(
        price_stats=summarize(prices),
        utility_stats=summarize(utilities),
        prices=prices,
        utilities=utilities,
    )


def _fading_plan(params) -> ExperimentPlan:
    markets = _fading_markets(params)
    return ExperimentPlan(
        "fading_sweep", dict(params), _grid_jobs(markets)
    )


def _fading_assemble(plan: ExperimentPlan, results: list) -> FadingSweepResult:
    return _fading_pack(_cells_from_payloads(results))


def _fading_direct(params) -> FadingSweepResult:
    return _fading_pack(_solve_grid_params(params, _fading_markets(params)))


FADING_SWEEP = api.register(
    api.ExperimentSpec(
        name="fading_sweep",
        description=(
            "Robustness — Monte-Carlo the equilibrium over channel-fading "
            "realisations (price/utility distributions under "
            "Rayleigh/Rician/shadowing channels)"
        ),
        params=(
            ParamSpec("fading", "fading?", None, 'fading model: rayleigh (default) | nofading | JSON payload for parameterised models, e.g. {"model": "rician", "k_factor": 3} or {"model": "shadowing", "sigma_db": 4}'),
            ParamSpec("draws", "int", 50, "Monte-Carlo fading draws (>= 2)"),
            ParamSpec("seed", "seed", 0, "RNG seed for the fading draws"),
        ) + api.CHUNK_PARAMS + CACHE_PARAMS,
        result_type=FadingSweepResult,
        plan=_fading_plan,
        assemble=_fading_assemble,
        direct=_fading_direct,
    )
)


def run_fading_sweep(
    *,
    fading: FadingModel | None = None,
    draws: int = 50,
    seed: SeedLike = 0,
    chunk_size: int | None = None,
    chunk_bytes: int | None = None,
    reuse_cache: bool = False,
    scheduler: JobScheduler | None = None,
) -> FadingSweepResult:
    """Monte-Carlo the equilibrium over fading realisations.

    Thin shim over the ``fading_sweep`` spec: the fading gains are drawn
    up front (a pure function of ``seed``); each realisation's market
    then solves in the stacked pass or, with ``scheduler``, as one cached
    ``equilibrium_cell`` job.
    """
    return api.run_experiment(
        FADING_SWEEP,
        {
            "fading": fading,
            "draws": draws,
            "seed": seed,
            "chunk_size": chunk_size,
            "chunk_bytes": chunk_bytes,
            "reuse_cache": reuse_cache,
        },
        scheduler=scheduler,
    )


@dataclass
class PopulationSweepResult:
    """Equilibrium statistics across random population draws."""

    utility_stats: SummaryStats
    price_stats: SummaryStats
    per_draw: list[tuple[float, float]]
    """(price, MSP utility) per population draw."""

    def table(self) -> Table:
        """Printable summary."""
        table = Table(
            headers=("metric", "mean", "ci_low", "ci_high", "n"),
            title="Robustness — equilibrium across random populations",
        )
        for name, stats in (
            ("p*", self.price_stats),
            ("MSP utility", self.utility_stats),
        ):
            table.add_row(
                name, stats.mean, stats.ci_low, stats.ci_high, stats.count
            )
        return table


def _population_markets(params) -> list[StackelbergMarket]:
    draws = int(params["draws"])
    if draws < 2:
        raise ValueError(f"draws must be >= 2, got {draws}")
    rng = as_generator(params["seed"])
    # Populations are drawn up front: the grid — and every cell's job
    # spec — is a pure function of (num_vmus, draws, seed).
    return [
        StackelbergMarket(sample_population(int(params["num_vmus"]), seed=rng))
        for _ in range(draws)
    ]


def _population_pack(per_draw) -> PopulationSweepResult:
    prices = [p for p, _ in per_draw]
    utilities = [u for _, u in per_draw]
    return PopulationSweepResult(
        utility_stats=summarize(utilities),
        price_stats=summarize(prices),
        per_draw=per_draw,
    )


def _population_plan(params) -> ExperimentPlan:
    markets = _population_markets(params)
    return ExperimentPlan(
        "population_sweep", dict(params), _grid_jobs(markets)
    )


def _population_assemble(
    plan: ExperimentPlan, results: list
) -> PopulationSweepResult:
    return _population_pack(_cells_from_payloads(results))


def _population_direct(params) -> PopulationSweepResult:
    return _population_pack(_solve_grid_params(params, _population_markets(params)))


POPULATION_SWEEP = api.register(
    api.ExperimentSpec(
        name="population_sweep",
        description=(
            "Robustness — equilibrium statistics across random population "
            "draws from the paper's parameter ranges"
        ),
        params=(
            ParamSpec("num_vmus", "int", 4, "VMUs per drawn population"),
            ParamSpec("draws", "int", 20, "random population draws (>= 2)"),
            ParamSpec("seed", "seed", 0, "RNG seed for the population draws"),
        ) + api.CHUNK_PARAMS + CACHE_PARAMS,
        result_type=PopulationSweepResult,
        plan=_population_plan,
        assemble=_population_assemble,
        direct=_population_direct,
    )
)


def run_population_sweep(
    *,
    num_vmus: int = 4,
    draws: int = 20,
    seed: SeedLike = 0,
    chunk_size: int | None = None,
    chunk_bytes: int | None = None,
    reuse_cache: bool = False,
    scheduler: JobScheduler | None = None,
) -> PopulationSweepResult:
    """Solve the market for many random populations from the paper ranges.

    Thin shim over the ``population_sweep`` spec: populations are drawn
    up front (pure function of ``seed``); each draw's market solves in
    the stacked pass or, with ``scheduler``, as one cached
    ``equilibrium_cell`` job.
    """
    return api.run_experiment(
        POPULATION_SWEEP,
        {
            "num_vmus": num_vmus,
            "draws": draws,
            "seed": seed,
            "chunk_size": chunk_size,
            "chunk_bytes": chunk_bytes,
            "reuse_cache": reuse_cache,
        },
        scheduler=scheduler,
    )
