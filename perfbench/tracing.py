"""Spans recorded from outside the program, for the traced benchmark pass.

The library has no tracing of its own, so the traced pass wraps the public
callables listed in :data:`LAYERS`. Each wrapper replaces the attribute in
the module or class where its caller looks it up, records a span
``(id, parent, name, start, end)`` per call, and is removed again by
:meth:`Tracer.unpatch`. Spans stay in memory until :meth:`Tracer.write`.

A layer's self time is its spans' duration minus the part covered by their
child spans, so nested layers (a live re-solve that builds a sub-stack and
runs the batched golden search) are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class NullTracer:
    """The untraced pass: spans and phases cost nothing."""

    phase = "run"
    """Set to ``"resume"`` by queue_drain around its resumed run, so the
    artifact hit ratio counts only that run's reads."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer(NullTracer):
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self._root = ""
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span_id = len(self.spans)
        parent = stack[-1] if stack else None
        if parent is None:
            self._root = name
        self.spans.append([span_id, parent, name, time.perf_counter(), None])
        stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter of the current root span (setup or iteration)."""
        self.counts[self._root][name] += amount

    @contextmanager
    def span(self, name: str):
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, layers: tuple["Layer", ...]) -> None:
        for layer in layers:
            for owner, attr in _resolve_targets(layer.targets):
                # A class's own __dict__ entry, so restoring never leaves an
                # inherited attribute shadowed by a copy.
                original = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                self._set(owner, attr, self._wrap(layer, original))
                self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            self._set(owner, attr, original)

    @staticmethod
    def _set(owner: object, attr: str, value: object) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, value)
        else:
            # Modules, and the frozen ExperimentSpec instances whose
            # plan/assemble slots run_experiment reads.
            object.__setattr__(owner, attr, value)

    def _wrap(self, layer: "Layer", function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            before = layer.before(args) if layer.before else None
            span_id = tracer.open(layer.name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span_id)
            if layer.after:
                layer.after(tracer, args, result, before)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #
    def layer_totals(self, root: str) -> tuple[dict, Counter, float]:
        """Self seconds and outermost call counts per span name, over the
        spans under roots called ``root``; plus those roots' total time."""
        roots: dict[int, str] = {}
        child_time = [0.0] * len(self.spans)
        for span_id, parent, name, start, end in self.spans:
            roots[span_id] = name if parent is None else roots[parent]
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        root_s = 0.0
        for span_id, parent, name, start, end in self.spans:
            if roots[span_id] != root:
                continue
            if parent is None:
                root_s += end - start
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[span_id]
            # A layer re-entering itself (join -> update_market) is one call.
            if parent is None or self.spans[parent][2] != name:
                calls[name] += 1
        return self_s, calls, root_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def _resolve_targets(targets: tuple[str, ...]):
    """``module:attr``, ``module:Class.attr``, or ``spec:plan`` (the slot on
    every registered experiment spec) → ``(owner, attribute)`` pairs."""
    for target in targets:
        module_name, _, path = target.partition(":")
        if module_name == "spec":
            api = importlib.import_module("repro.experiments.api")
            for name in api.experiment_names():
                yield api.get_experiment(name), path
            continue
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        yield owner, attr


@dataclass(frozen=True)
class Layer:
    """One traced layer: the span name and the callables it wraps.

    ``before(args)`` runs ahead of the call; ``after(tracer, args, result,
    before)`` runs after it and may add counters through ``tracer.count``.
    """

    name: str
    targets: tuple[str, ...]
    before: Callable | None = None
    after: Callable | None = None


def _count_markets(tracer, args, result, before) -> None:
    tracer.count("mobility.city_markets.markets", len(result))


def _count_rows(tracer, args, result, before) -> None:
    tracer.count("marketstack.solve.rows", len(result.prices))


def _live_before(args):
    return args[0].rows_resolved, args[0].solve_count


def _live_after(tracer, args, result, before) -> None:
    tracer.count("marketstack.live.rows", args[0].rows_resolved - before[0])
    tracer.count("marketstack.live.solves", args[0].solve_count - before[1])


def _query_before(args):
    return args[0].stack.solve_count


def _query_after(tracer, args, result, before) -> None:
    if args[0].stack.solve_count != before:
        tracer.count("service.solved_queries", 1)


def _release_after(tracer, args, result, before) -> None:
    tracer.count("queue.released", 1)


def _get_after(tracer, args, result, before) -> None:
    if tracer.phase == "resume":
        tracer.count("artifacts.resume_gets", 1)
        tracer.count("artifacts.resume_hits", result is not None)


_MS = "repro.core.marketstack"
_QUEUE = "repro.queue.queue:JobQueue"
LAYERS: tuple[Layer, ...] = (
    Layer(
        "mobility.city_markets",
        ("repro.mobility.citygrid:city_markets",
         "repro.experiments.cityscale:city_markets"),
        after=_count_markets,
    ),
    Layer("marketstack.build", (f"{_MS}:MarketStack.__init__",)),
    Layer(
        "marketstack.solve",
        (f"{_MS}:MarketStack.equilibria_stacked",
         f"{_MS}:MarketStack.equilibria_stacked_chunked"),
        after=_count_rows,
    ),
    Layer(
        "marketstack.live",
        (f"{_MS}:MutableMarketStack.equilibria_live",),
        before=_live_before,
        after=_live_after,
    ),
    Layer(
        "marketstack.mutate",
        (f"{_MS}:MutableMarketStack.join", f"{_MS}:MutableMarketStack.leave",
         f"{_MS}:MutableMarketStack.set_fading_gain",
         f"{_MS}:MutableMarketStack.update_market"),
    ),
    Layer("solvers.golden_batch", (f"{_MS}:grid_then_golden_batch",)),
    Layer("solvers.golden_scalar", (f"{_MS}:golden_section_maximize",)),
    Layer(
        "service.query",
        ("repro.service.pricing:LivePricingService.query",),
        before=_query_before,
        after=_query_after,
    ),
    Layer("service.apply", ("repro.service.pricing:LivePricingService.apply",)),
    Layer("env.step", ("repro.env.vector:VectorMigrationEnv.step",)),
    Layer("env.reset", ("repro.env.vector:VectorMigrationEnv.reset",)),
    Layer("drl.act", ("repro.drl.ppo:PPOAgent.act_batch",)),
    Layer("drl.update", ("repro.drl.ppo:PPOAgent.update",)),
    Layer("drl.value", ("repro.drl.ppo:PPOAgent.value_batch",)),
    Layer("experiments.plan", ("spec:plan",)),
    Layer("experiments.assemble", ("spec:assemble",)),
    Layer(
        "experiments.execute_job",
        ("repro.queue.worker:execute_job", "repro.experiments.api:execute_job"),
    ),
    Layer("queue.enqueue", (f"{_QUEUE}.enqueue",)),
    Layer("queue.lease", (f"{_QUEUE}.lease",)),
    Layer("queue.ack", (f"{_QUEUE}.ack",)),
    Layer("queue.release", (f"{_QUEUE}.release",), after=_release_after),
    Layer("queue.reap", (f"{_QUEUE}.reap",)),
    Layer("queue.outstanding", (f"{_QUEUE}.outstanding",)),
    Layer("artifacts.put", ("repro.queue.artifacts:ArtifactStore.put",)),
    Layer(
        "artifacts.get",
        ("repro.queue.artifacts:ArtifactStore.get",),
        after=_get_after,
    ),
)
