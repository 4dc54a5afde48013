"""Multi-seed experiment aggregation with confidence intervals.

Single-seed DRL comparisons are anecdotes. This runner repeats a
scheme-vs-scheme evaluation across seeds and reports mean ± CI per metric,
plus a Welch t-test for "does the proposed scheme beat the baseline"
claims — the statistical backing the paper's single-run figures lack.

Sharding
--------
Per-seed runs are fully independent, so the ``multiseed`` spec plans
them as ``shards=k`` serializable ``multiseed_shard``
:class:`~repro.experiments.scheduler.Job`s. Run through a scheduler
(``run multiseed --workers k``, where ``shards`` defaults to the worker
count) they fan out across worker processes and inherit its result
caching/resume; the ``schedule`` CLI exports them for cross-machine
fan-out. The contract is **determinism, not approximation**:

- seeds are partitioned round-robin (shard ``i`` takes ``seeds[i::k]``) —
  a pure function of ``(seeds, shards)``;
- each shard runs the identical sequential code on its slice and ships its
  samples home as a :meth:`MultiSeedResult.to_payload` dict (the same
  JSON-able payload :func:`repro.utils.serialization.save_json` writes);
- the merge reassembles every sample at its seed's original position.

A sharded run therefore returns a result *exactly equal* to the sequential
path — same samples, same order — regardless of ``k`` or worker scheduling.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.stackelberg import StackelbergMarket
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments import api
from repro.experiments.api import CONFIG_PARAMS, MARKET_PARAM, ExperimentPlan, ParamSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    PolicyEvaluation,
    compare_schemes_stacked,
    validate_schemes,
)
from repro.experiments.scheduler import (
    config_from_payload,
    config_to_payload,
    market_from_payload,
    market_to_payload,
    solve_job,
)
from repro.utils.stats import SummaryStats, compare_means, summarize
from repro.utils.tables import Table

__all__ = [
    "MultiSeedResult",
    "run_shard_job",
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

    def to_payload(self) -> dict:
        """This result as a plain JSON-able dict.

        Round-trips through :func:`repro.utils.serialization.save_json` /
        ``load_json`` and :meth:`from_payload`; it is also the wire format
        shard workers return to the merging parent.
        """
        return {
            "metric": self.metric,
            "seeds": list(self.seeds),
            "samples": {
                scheme: [float(v) for v in values]
                for scheme, values in self.samples.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: object) -> "MultiSeedResult":
        """Rebuild a result from :meth:`to_payload`'s dict (e.g. freshly
        ``load_json``-ed from disk)."""
        if not isinstance(payload, Mapping):
            raise ExperimentError(
                f"multiseed payload must be a mapping, got "
                f"{type(payload).__name__}"
            )
        try:
            metric = payload["metric"]
            seeds = payload["seeds"]
            samples = payload["samples"]
        except KeyError as exc:
            raise ExperimentError(
                f"multiseed payload is missing key {exc.args[0]!r}"
            ) from exc
        if not isinstance(samples, Mapping):
            raise ExperimentError("multiseed payload 'samples' must be a mapping")
        if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Sequence):
            raise ExperimentError("multiseed payload 'seeds' must be a sequence")
        return cls(
            metric=str(metric),
            samples={
                str(scheme): [float(v) for v in values]
                for scheme, values in samples.items()
            },
            seeds=tuple(int(s) for s in seeds),
        )


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


def _run_sequential(
    market: StackelbergMarket,
    base_config: ExperimentConfig,
    seeds: tuple[int, ...],
    schemes: tuple[str, ...],
    metric: str,
) -> MultiSeedResult:
    """The per-seed loop every shard executes on its seed slice."""
    result = MultiSeedResult(metric=metric, seeds=tuple(seeds))
    for scheme in schemes:
        result.samples[scheme] = []
    for seed in seeds:
        (evaluations,) = compare_schemes_stacked(
            [market], base_config.with_seed(seed), schemes=schemes
        )
        for scheme, evaluation in evaluations.items():
            result.samples[scheme].append(float(getattr(evaluation, metric)))
    return result


def run_shard_job(payload: Mapping) -> dict:
    """Job kind ``multiseed_shard``: one shard's seed slice, as a payload.

    The scheduler's worker entry point for multiseed sharding: rebuilds
    the market and config from their JSON payloads, runs the identical
    sequential per-seed loop on the shard's slice, and returns the
    :meth:`MultiSeedResult.to_payload` wire dict.
    """
    market = market_from_payload(payload["market"])
    config = config_from_payload(payload["config"])
    return _run_sequential(
        market,
        config,
        tuple(int(seed) for seed in payload["seeds"]),
        tuple(str(scheme) for scheme in payload["schemes"]),
        str(payload["metric"]),
    ).to_payload()


def _partition_seeds(
    seeds: tuple[int, ...], shards: int
) -> list[tuple[int, ...]]:
    """Round-robin partition — deterministic in ``(seeds, shards)``."""
    count = min(shards, len(seeds))
    return [tuple(seeds[i::count]) for i in range(count)]


def _merge_shards(
    metric: str,
    seeds: tuple[int, ...],
    schemes: tuple[str, ...],
    payloads: list[dict],
) -> MultiSeedResult:
    """Reassemble shard payloads into the sequential result, exactly.

    Each shard's payload carries its own seed slice, so every sample lands
    back at its seed's position in the original ``seeds`` order — the
    merged result is indistinguishable from a sequential run.

    Every ``(scheme, seed)`` cell must be filled by exactly one shard: a
    payload from a crashed or short shard must not merge silently as the
    pre-filled ``0.0`` (which would corrupt the very means/CIs/p-values
    multiseed exists to provide).

    Raises:
        ExperimentError: if a payload carries a seed outside ``seeds``,
            two payloads fill the same cell, or — after all payloads are
            merged — any ``(scheme, seed)`` cell is still missing (the
            missing cells are named).
    """
    position = {seed: i for i, seed in enumerate(seeds)}
    merged = MultiSeedResult(
        metric=metric,
        samples={scheme: [0.0] * len(seeds) for scheme in schemes},
        seeds=tuple(seeds),
    )
    filled: set[tuple[str, int]] = set()
    for payload in payloads:
        part = MultiSeedResult.from_payload(payload)
        for scheme in schemes:
            values = part.samples.get(scheme, [])
            for shard_pos, seed in enumerate(part.seeds):
                if seed not in position:
                    raise ExperimentError(
                        f"shard payload carries seed {seed}, which is not "
                        f"in the requested seed set {tuple(seeds)}"
                    )
                if shard_pos >= len(values):
                    # A short sample list: the cell stays unfilled and is
                    # reported with the other missing cells below.
                    continue
                cell = (scheme, seed)
                if cell in filled:
                    raise ExperimentError(
                        f"two shard payloads both carry a sample for "
                        f"scheme {scheme!r}, seed {seed} — refusing to "
                        "merge ambiguous duplicates"
                    )
                merged.samples[scheme][position[seed]] = values[shard_pos]
                filled.add(cell)
    missing = [
        (scheme, seed)
        for scheme in schemes
        for seed in seeds
        if (scheme, seed) not in filled
    ]
    if missing:
        names = ", ".join(
            f"({scheme!r}, seed {seed})" for scheme, seed in missing
        )
        raise ExperimentError(
            f"shard merge is missing {len(missing)} sample(s): {names} — "
            "a shard crashed or returned a short payload; a silent merge "
            "would corrupt the means/CIs, so rerun the missing shards"
        )
    return merged


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
    shards = int(params["shards"])
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    seeds = _validate_seeds(tuple(params["seeds"]))
    schemes = validate_schemes(tuple(params["schemes"]))
    metric = _validate_metric(str(params["metric"]))
    market = api.resolve_market(params)
    config = api.resolve_config(params)
    partitions = _partition_seeds(seeds, shards)
    market_payload = market_to_payload(market)
    config_payload = config_to_payload(config)
    jobs = [
        solve_job(
            "multiseed_shard",
            {
                "market": market_payload,
                "config": config_payload,
                "seeds": list(shard_seeds),
                "schemes": list(schemes),
                "metric": metric,
            },
        )
        for shard_seeds in partitions
    ]
    return ExperimentPlan(
        "multiseed",
        dict(params),
        jobs,
        context={"seeds": seeds, "schemes": schemes, "metric": metric},
    )


def _assemble(plan: ExperimentPlan, results: list) -> MultiSeedResult:
    return _merge_shards(
        plan.context["metric"],
        plan.context["seeds"],
        plan.context["schemes"],
        results,
    )


MULTISEED = api.register(
    api.ExperimentSpec(
        name="multiseed",
        description=(
            "Multi-seed scheme comparison with confidence intervals and a "
            "Welch test (per-seed runs shard into multiseed_shard jobs)"
        ),
        params=(
            ParamSpec("seeds", "ints", (0, 1, 2, 3, 4), "seed list (>= 2 distinct seeds)"),
            ParamSpec("schemes", "strs", ("drl", "random"), "pricing schemes to compare"),
            ParamSpec("metric", "str", "mean_msp_utility", "PolicyEvaluation field to aggregate"),
            ParamSpec("shards", "int", 1, "multiseed_shard jobs for the per-seed fan-out (with a scheduler, unset means its worker count)"),
            MARKET_PARAM,
            *CONFIG_PARAMS,
        ),
        result_type=MultiSeedResult,
        plan=_plan,
        assemble=_assemble,
    )
)
