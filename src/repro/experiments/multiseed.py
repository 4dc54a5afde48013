"""Multi-seed experiment aggregation with confidence intervals.

Single-seed DRL comparisons are anecdotes. This runner repeats a
scheme-vs-scheme evaluation across seeds and reports mean ± CI per metric,
plus a Welch t-test for "does the proposed scheme beat the baseline"
claims — the statistical backing the paper's single-run figures lack.

Each seed is one Fig. 3-style scheme comparison on one market: the
``multiseed`` spec plans it with
:func:`~repro.experiments.runner.plan_scheme_jobs` under
``config.with_seed(seed)`` — one ``market_scheme`` job per seed and
history-dependent scheme (``drl``, ``greedy``) — and assembles it with
:func:`~repro.experiments.runner.assemble_scheme_results`, which also
evaluates the plannable schemes (``random``, ``equilibrium``) in-process.
Every sample depends only on ``(market, config, seed, scheme)``, so a run
fanned over a scheduler's workers, or resumed seed by seed from its
store, returns the in-process result exactly.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import api
from repro.experiments.api import CONFIG_PARAMS, MARKET_PARAM, ExperimentPlan, ParamSpec
from repro.experiments.runner import (
    PolicyEvaluation,
    assemble_scheme_results,
    plan_scheme_jobs,
    validate_schemes,
)
from repro.utils.stats import SummaryStats, compare_means, summarize
from repro.utils.tables import Table

__all__ = [
    "MultiSeedResult",
    "MULTISEED",
]


@dataclass
class MultiSeedResult:
    """Per-scheme metric samples across seeds.

    ``samples[scheme][i]`` is the metric of ``scheme`` under ``seeds[i]``
    (the ``multiseed`` spec always records the seed axis).
    """

    metric: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    seeds: tuple[int, ...] = ()

    def stats(self, scheme: str) -> SummaryStats:
        """Mean ± CI of the metric for one scheme."""
        return summarize(self.samples[scheme])

    def significance(self, scheme_a: str, scheme_b: str) -> float:
        """Welch-test p-value for mean(scheme_a) != mean(scheme_b)."""
        _, p_value = compare_means(
            self.samples[scheme_a], self.samples[scheme_b]
        )
        return p_value

    def table(self) -> Table:
        """Printable per-scheme summary."""
        table = Table(
            headers=("scheme", "mean", "ci_low", "ci_high", "n"),
            title=f"Multi-seed comparison — {self.metric}",
        )
        for scheme in sorted(self.samples):
            stats = self.stats(scheme)
            table.add_row(
                scheme, stats.mean, stats.ci_low, stats.ci_high, stats.count
            )
        return table


def _validate_seeds(seeds: tuple[int, ...]) -> tuple[int, ...]:
    """Reject degenerate seed sets; duplicates would silently double-count
    samples and shrink every confidence interval."""
    if len(seeds) < 2:
        raise ConfigurationError("need at least two seeds for statistics")
    duplicates = sorted(
        seed for seed, count in Counter(seeds).items() if count > 1
    )
    if duplicates:
        raise ConfigurationError(
            f"duplicate seeds {duplicates} would double-count samples; "
            "every seed must appear once"
        )
    return tuple(seeds)


def _validate_metric(metric: str) -> str:
    """The metric must name a PolicyEvaluation field — checked up front,
    because the first seed can take minutes of DRL training before a bad
    name would otherwise die in ``getattr`` (possibly inside a worker)."""
    names = {spec.name for spec in dataclasses.fields(PolicyEvaluation)}
    if metric not in names:
        raise ConfigurationError(
            f"metric must be a PolicyEvaluation field "
            f"({', '.join(sorted(names))}), got {metric!r}"
        )
    return metric


def _plan(params) -> ExperimentPlan:
    seeds = _validate_seeds(tuple(params["seeds"]))
    schemes = validate_schemes(tuple(params["schemes"]))
    metric = _validate_metric(str(params["metric"]))
    market = api.resolve_market(params)
    config = api.resolve_config(params)
    jobs = []
    for seed in seeds:
        # Every seed plans the same slots, one job per history-dependent
        # scheme, so the results split into equal per-seed slices.
        seed_jobs, slots = plan_scheme_jobs(
            [market], config.with_seed(seed), schemes
        )
        jobs += seed_jobs
    return ExperimentPlan(
        "multiseed",
        dict(params),
        jobs,
        context={
            "market": market,
            "config": config,
            "seeds": seeds,
            "schemes": schemes,
            "metric": metric,
            "slots": slots,
        },
    )


def _assemble(plan: ExperimentPlan, results: list) -> MultiSeedResult:
    context = plan.context
    schemes, slots = context["schemes"], context["slots"]
    metric = context["metric"]
    result = MultiSeedResult(
        metric=metric,
        samples={scheme: [] for scheme in schemes},
        seeds=context["seeds"],
    )
    # The results split into equal per-seed slices by position, so a short
    # or padded list would shift every later seed's samples.
    expected = len(result.seeds) * len(slots)
    if len(results) != expected:
        raise ExperimentError(
            f"multiseed expected {expected} job results ({len(slots)} per "
            f"seed for {len(result.seeds)} seeds), got {len(results)}"
        )
    for index, seed in enumerate(result.seeds):
        (evaluations,) = assemble_scheme_results(
            [context["market"]],
            context["config"].with_seed(seed),
            schemes,
            slots,
            results[index * len(slots) : (index + 1) * len(slots)],
        )
        for scheme, evaluation in evaluations.items():
            result.samples[scheme].append(float(getattr(evaluation, metric)))
    return result


MULTISEED = api.register(
    api.ExperimentSpec(
        name="multiseed",
        description=(
            "Multi-seed scheme comparison with confidence intervals and a "
            "Welch test (one market_scheme job per seed and DRL/greedy scheme)"
        ),
        params=(
            ParamSpec("seeds", "ints", (0, 1, 2, 3, 4), "seed list (>= 2 distinct seeds)"),
            ParamSpec("schemes", "strs", ("drl", "random"), "pricing schemes to compare"),
            ParamSpec("metric", "str", "mean_msp_utility", "PolicyEvaluation field to aggregate"),
            MARKET_PARAM,
            *CONFIG_PARAMS,
        ),
        result_type=MultiSeedResult,
        plan=_plan,
        assemble=_assemble,
    )
)
