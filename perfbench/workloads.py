"""The four benchmark workloads, driven through the library's public API.

Each workload splits one iteration into ``prepare`` (fresh state, untimed)
and ``run`` (the timed region), and checks its outputs in ``check``,
outside any timed region. Inputs come from the workload seed alone and are
built by ``inputs`` before timing starts. The library is imported inside
the methods, so the set-up measurement includes the import.

Why each workload exists:

- ``city_sweep``: a cold bulk solve of 10 000 RSU-grid markets. City
  construction is most of it; the chunked batched solve is the rest. It
  touches no service, DRL or queue code.
- ``live_churn``: a pricing service over 1 000 markets, driven by one
  closed-loop client that applies bursts of 1-16 updates (joins and
  leaves balanced, plus fading drift) and then asks 4 queries. Bursts of
  8 rows or fewer take the per-row scalar refinement, larger ones the
  batched golden loop, so both sides of that threshold are exercised.
- ``fig2_train``: the paper's Fig. 2 PPO training (quick preset, 6 000
  env steps on the 2-VMU market). The market solves are tiny, so solver
  work moves nothing here.
- ``queue_drain``: 200 tiny ``equilibrium_cell`` jobs drained through the
  shared-directory queue, then one resumed run served from the artifact
  store. Only this workload touches the queue and artifact layers.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

LIVE_MARKETS = 1000
LIVE_BURSTS = 400
LIVE_MAX_BURST = 16
LIVE_QUERIES_PER_BURST = 4
LIVE_MAX_VMUS = 7
"""Joins never grow a market past 7 VMUs: the scalar refinement path only
runs on sub-stacks narrower than 8, and the bursts must keep reaching it."""


@dataclass
class Sample:
    """What one timed iteration did."""

    work: int
    """Units of work in the timed region (markets, events, steps, jobs)."""
    seconds: float
    """Wall time of the timed region."""
    requests: list[float]
    """Latency of each user request in the timed region (s)."""
    attempted: int
    failed: int = 0
    output: object = None


@dataclass
class Failures:
    """Failed output checks, by message."""

    messages: list[str] = field(default_factory=list)
    checks: int = 0

    def expect(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.messages.append(message)


def import_library() -> None:
    import repro.experiments  # noqa: F401
    import repro.queue  # noqa: F401
    import repro.service  # noqa: F401


def _payload_json(result) -> str:
    from repro.experiments import result_to_payload

    # json writes floats with repr, which round-trips exactly, so equal
    # strings mean bitwise-equal results.
    return json.dumps(result_to_payload(result), sort_keys=True)


class Workload:
    """One workload: seeded ``inputs``, an untimed ``prepare`` of fresh
    state per iteration, the timed ``run``, and the output ``check``."""

    name = ""
    ops_per_iteration = 1
    """Operations an iteration attempts, counted as failed if it raises."""

    def inputs(self, seed: int, work_dir: Path):
        raise NotImplementedError

    def prepare(self, inputs):
        return None

    def run(self, inputs, state, tracer) -> Sample:
        raise NotImplementedError

    def cleanup(self, state) -> None:
        pass

    def check(self, inputs, samples: list[Sample], failures: Failures) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# city_sweep
# ---------------------------------------------------------------------- #
class CitySweep(Workload):
    name = "city_sweep"
    markets = 10_000

    def inputs(self, seed, work_dir):
        return {"m": self.markets, "seed": seed}

    def run(self, inputs, state, tracer):
        from repro.experiments import run_experiment

        start = time.perf_counter()
        result = run_experiment("city_sweep", inputs)
        seconds = time.perf_counter() - start
        return Sample(self.markets, seconds, [seconds], 1, output=result)

    def check(self, inputs, samples, failures):
        from repro.core.marketstack import MarketStack
        from repro.mobility.citygrid import CityGridSpec, city_markets
        from repro.utils.stats import summarize

        first = samples[0].output
        failures.expect(
            first.feasible == self.markets,
            f"city_sweep: {first.feasible} of {self.markets} markets feasible",
        )
        spec = CityGridSpec.for_markets(self.markets, seed=inputs["seed"])
        cold = MarketStack(city_markets(spec)).equilibria_stacked()
        ok = [bool(flag) for flag in cold.feasible]
        expected = {
            "feasible": sum(ok),
            "capacity_binding": int(cold.capacity_binding.sum()),
            "price_cap_binding": int(cold.price_cap_binding.sum()),
            "price_stats": summarize(
                [float(p) for p, f in zip(cold.prices, ok) if f]
            ),
            "utility_stats": summarize(
                [float(u) for u, f in zip(cold.msp_utilities, ok) if f]
            ),
            "total_bandwidth": float(
                sum(float(b) for b, f in zip(cold.total_bandwidths, ok) if f)
            ),
        }
        for key, value in expected.items():
            failures.expect(
                repr(getattr(first, key)) == repr(value),
                f"city_sweep: {key} differs from the cold unchunked solve",
            )
        reference = _payload_json(first)
        for sample in samples[1:]:
            failures.expect(
                _payload_json(sample.output) == reference,
                "city_sweep: repeated sweeps of one city differ",
            )


# ---------------------------------------------------------------------- #
# live_churn
# ---------------------------------------------------------------------- #
class LiveChurn(Workload):
    name = "live_churn"

    def inputs(self, seed, work_dir):
        import numpy as np

        from repro.channel.fading import RayleighFading
        from repro.entities.vmu import VmuProfile, sample_population
        from repro.mobility import citygrid
        from repro.service import FadingDrift, VmuJoin, VmuLeave

        spec = citygrid.CityGridSpec.for_markets(LIVE_MARKETS, seed=seed)
        counts = [m.num_vmus for m in citygrid.city_markets(spec)]
        joined: dict[int, list[str]] = {}
        rng = np.random.default_rng([seed, 0x11FE])
        fading = RayleighFading()
        stream = []
        serial = 0
        for _ in range(LIVE_BURSTS):
            size = int(rng.integers(1, LIVE_MAX_BURST + 1))
            burst, used = [], set()
            while len(burst) < size:
                kind = ("join", "leave", "fading")[int(rng.integers(3))]
                # Leaves only remove VMUs the stream joined, so every
                # market keeps its own population and joins and leaves
                # balance over the stream.
                leavable = [i for i in joined if i not in used]
                if kind == "leave" and leavable:
                    target = leavable[int(rng.integers(len(leavable)))]
                    pool = joined[target]
                    vmu_id = pool.pop(int(rng.integers(len(pool))))
                    if not pool:
                        del joined[target]
                    counts[target] -= 1
                    burst.append(VmuLeave(target, vmu_id))
                    used.add(target)
                    continue
                target = int(rng.integers(LIVE_MARKETS))
                if target in used:
                    continue
                used.add(target)
                if kind == "join" and counts[target] < LIVE_MAX_VMUS:
                    drawn = sample_population(1, seed=rng)[0]
                    vmu = VmuProfile(
                        vmu_id=f"live-{serial}",
                        data_size_mb=drawn.data_size_mb,
                        immersion_coef=drawn.immersion_coef,
                    )
                    serial += 1
                    joined.setdefault(target, []).append(vmu.vmu_id)
                    counts[target] += 1
                    burst.append(VmuJoin(target, vmu))
                else:
                    gain = float(max(fading.sample(rng, size=1)[0], 1e-6))
                    burst.append(FadingDrift(target, gain))
            queries = [
                int(q)
                for q in rng.integers(LIVE_MARKETS, size=LIVE_QUERIES_PER_BURST)
            ]
            stream.append((tuple(burst), tuple(queries)))
        return {"spec": spec, "stream": tuple(stream)}

    def prepare(self, inputs):
        from repro.mobility import citygrid
        from repro.service import LivePricingService

        service = LivePricingService(citygrid.city_markets(inputs["spec"]))
        service.equilibria()  # the cold full solve is set-up, not churn
        return service

    def run(self, inputs, service, tracer):
        apply, query = service.apply, service.query
        clock = time.perf_counter
        latencies, quotes = [], []
        events = failed = 0
        start = clock()
        for burst, queries in inputs["stream"]:
            for event in burst:
                try:
                    apply(event)
                except Exception:
                    failed += 1
            for index in queries:
                sent = clock()
                try:
                    quote = query(index)
                except Exception:
                    failed += 1
                    quote = None
                latencies.append(clock() - sent)
                quotes.append(quote)
            events += len(burst) + len(queries)
        seconds = clock() - start
        return Sample(
            events, seconds, latencies, events, failed, output=(quotes, service)
        )

    def check(self, inputs, samples, failures):
        from repro.core.marketstack import MarketStack

        fields = (
            "prices", "demands", "msp_utilities", "vmu_utilities",
            "capacity_binding", "price_cap_binding", "feasible",
        )
        quotes, service = samples[0].output
        live = service.equilibria()
        cold = MarketStack(service.stack.markets).equilibria_stacked()
        for name in fields:
            a, b = getattr(live, name), getattr(cold, name)
            failures.expect(
                a.shape == b.shape and a.tobytes() == b.tobytes(),
                f"live_churn: final live {name} differ from a cold solve",
            )
        # Replay the stream on a fresh service, comparing every quote with
        # the live row at the moment it was served and with the timed run.
        replay = self.prepare(inputs)
        position = 0
        mismatched = 0
        for burst, queries in inputs["stream"]:
            for event in burst:
                replay.apply(event)
            for index in queries:
                quote = replay.query(index)
                row = replay.equilibria()
                expected = (
                    bool(row.feasible[index]), float(row.prices[index]),
                    float(row.msp_utilities[index]),
                    bool(row.capacity_binding[index]),
                    bool(row.price_cap_binding[index]),
                )
                served = (
                    quote.feasible, quote.price, quote.msp_utility,
                    quote.capacity_binding, quote.price_cap_binding,
                )
                mismatched += repr(served) != repr(expected)
                mismatched += repr(quote) != repr(quotes[position])
                position += 1
        failures.expect(
            mismatched == 0, f"live_churn: {mismatched} quote mismatches"
        )
        for sample in samples[1:]:
            failures.expect(
                repr(sample.output[0]) == repr(quotes),
                "live_churn: repeated streams served different quotes",
            )


# ---------------------------------------------------------------------- #
# fig2_train
# ---------------------------------------------------------------------- #
class Fig2Train(Workload):
    name = "fig2_train"

    def inputs(self, seed, work_dir):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig.quick(seed=seed)

    def run(self, config, state, tracer):
        from repro.experiments import run_experiment

        start = time.perf_counter()
        result = run_experiment("fig2", {"config": config})
        seconds = time.perf_counter() - start
        steps = config.num_episodes * config.rounds_per_episode * config.num_envs
        return Sample(steps, seconds, [seconds], 1, output=result)

    def check(self, config, samples, failures):
        reference = _payload_json(samples[0].output)
        for sample in samples:
            gap = sample.output.utility_gap
            failures.expect(gap <= 0.01, f"fig2_train: utility gap {gap:.4%}")
            failures.expect(
                _payload_json(sample.output) == reference,
                "fig2_train: repeated trainings on one seed differ",
            )


# ---------------------------------------------------------------------- #
# queue_drain
# ---------------------------------------------------------------------- #
class QueueDrain(Workload):
    name = "queue_drain"
    draws = 200
    ops_per_iteration = draws

    def inputs(self, seed, work_dir):
        work_dir.mkdir(parents=True, exist_ok=True)
        return {"params": {"draws": self.draws, "seed": seed}, "work_dir": work_dir}

    def prepare(self, inputs):
        return Path(tempfile.mkdtemp(prefix="queue-", dir=inputs["work_dir"]))

    def run(self, inputs, queue_dir, tracer):
        from repro.experiments import run_experiment
        from repro.queue import QueueScheduler

        cold = QueueScheduler(queue_dir)
        start = time.perf_counter()
        result = run_experiment("fading_sweep", inputs["params"], scheduler=cold)
        seconds = time.perf_counter() - start
        tracer.phase = "resume"
        try:
            resume = QueueScheduler(queue_dir)
            resumed = run_experiment(
                "fading_sweep", inputs["params"], scheduler=resume
            )
        finally:
            tracer.phase = "run"
        output = {
            "result": result,
            "resumed": resumed,
            "executed": cold.jobs_executed,
            "resume_hits": resume.cache_hits,
            "resume_executed": resume.jobs_executed,
        }
        return Sample(self.draws, seconds, [seconds], self.draws, output=output)

    def cleanup(self, queue_dir):
        shutil.rmtree(queue_dir, ignore_errors=True)

    def check(self, inputs, samples, failures):
        from repro.experiments import run_experiment

        direct = _payload_json(run_experiment("fading_sweep", inputs["params"]))
        for sample in samples:
            out = sample.output
            failures.expect(
                _payload_json(out["result"]) == direct,
                "queue_drain: queued result differs from the direct sweep",
            )
            failures.expect(
                _payload_json(out["resumed"]) == direct,
                "queue_drain: resumed result differs from the direct sweep",
            )
            failures.expect(
                out["executed"] == self.draws,
                f"queue_drain: cold drain executed {out['executed']} jobs",
            )
            failures.expect(
                out["resume_hits"] == self.draws and out["resume_executed"] == 0,
                f"queue_drain: resume hit {out['resume_hits']} and executed "
                f"{out['resume_executed']} jobs",
            )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CitySweep(), LiveChurn(), Fig2Train(), QueueDrain())
}
