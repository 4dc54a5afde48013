"""Robustness experiments beyond the paper's figures.

The paper evaluates one radio operating point (d = 500 m, no fading) and
one population draw. These sweeps probe how the equilibrium — and hence
everything plotted in Fig. 3 — shifts when the physical layer or the
population moves:

- ``distance_sweep`` — RSU separation d: lower spectral efficiency
  raises AoTM and reshapes prices (`p* ∝ sqrt(SE)`).
- ``fading_sweep`` — Monte-Carlo over fading draws: equilibrium
  price/utility distributions under Rayleigh/Rician/shadowing channels.
- ``population_sweep`` — multiple random population draws from the
  paper's parameter ranges with multi-seed summary statistics.

Every sweep draws its whole market grid up front (a pure function of the
parameters) and plans one ``equilibrium_cell`` job per grid cell — run
in-process, or fanned out and stored by a
:class:`repro.queue.QueueScheduler`. Each cell is the scalar equilibrium,
which *is* the ``M = 1`` stacked solve, so every cell equals the same
market solved inside one
:meth:`repro.core.marketstack.MarketStack.equilibria_stacked` pass.
Overlapping sweeps reuse solved cells through the queue directory's
content-keyed artifact store (``QueueScheduler(queue_dir)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.fading import RayleighFading
from repro.channel.link import paper_link
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.errors import ConfigurationError
from repro.experiments import api
from repro.experiments.api import ExperimentPlan, ParamSpec
from repro.experiments.scheduler import Job, market_to_payload, solve_job
from repro.utils.rng import as_generator
from repro.utils.stats import SummaryStats, summarize
from repro.utils.tables import Table

__all__ = [
    "DistanceSweepResult",
    "FadingSweepResult",
    "PopulationSweepResult",
    "DISTANCE_SWEEP",
    "FADING_SWEEP",
    "POPULATION_SWEEP",
]


def _grid_jobs(markets: list[StackelbergMarket]) -> list[Job]:
    """One ``equilibrium_cell`` job per market of a sweep grid."""
    return [
        solve_job("equilibrium_cell", {"market": market_to_payload(market)})
        for market in markets
    ]


def _draws(params) -> int:
    draws = int(params["draws"])
    if draws < 2:
        raise ConfigurationError(f"draws must be >= 2, got {draws}")
    return draws


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


DISTANCE_SWEEP = api.register(
    api.ExperimentSpec(
        name="distance_sweep",
        description=(
            "Robustness — Stackelberg equilibrium vs RSU separation d "
            "(spectral efficiency, price, MSP utility per distance)"
        ),
        params=(
            ParamSpec("distances_m", "floats", DEFAULT_DISTANCES, "RSU separations to sweep (m)"),
        ),
        result_type=DistanceSweepResult,
        plan=_distance_plan,
        assemble=_distance_assemble,
    )
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
    draws = _draws(params)
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
        ),
        result_type=FadingSweepResult,
        plan=_fading_plan,
        assemble=_fading_assemble,
    )
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
    draws = _draws(params)
    num_vmus = int(params["num_vmus"])
    if num_vmus < 1:
        raise ConfigurationError(f"num_vmus must be >= 1, got {num_vmus}")
    rng = as_generator(params["seed"])
    # Populations are drawn up front: the grid — and every cell's job
    # spec — is a pure function of (num_vmus, draws, seed).
    return [
        StackelbergMarket(sample_population(num_vmus, seed=rng))
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
        ),
        result_type=PopulationSweepResult,
        plan=_population_plan,
        assemble=_population_assemble,
    )
)
