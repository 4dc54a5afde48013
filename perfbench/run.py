"""End-to-end benchmark of the repro library, with a traced per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city_sweep --seed 1 --seconds 18 --trace 0

The workloads are described in ``perfbench/workloads.py``. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a fingerprint line (git sha, cores, versions, seed, run
count) is printed above it, and the record with its raw samples is written
to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics of untraced iterations:

- ``setup_s``: time from the first ``import repro`` to the workload being
  ready (inputs generated, first fresh state built); the median of three
  fresh interpreters, this process and two child processes.
- ``work_per_s``: markets (city_sweep), service events (live_churn), env
  steps (fig2_train) or cold-drained jobs (queue_drain) per second of the
  timed region; the median over iterations.
- ``request_p50_ms`` / ``request_p99_ms``: latency of one user request,
  a price query on live_churn and a whole ``run_experiment`` call on the
  other workloads. Each iteration's nearest-rank percentile, capped at the
  highest one with ten samples beyond it (the median for a single
  request), then the median over iterations.
- ``peak_mb``: peak resident memory of a child process that imports the
  library and runs one iteration, apart from the timed pass.
- ``success_share``: the share of attempted operations (queries, events,
  jobs, iterations, output checks) that did not fail.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer self time and counts per traced iteration (see
``perfbench/tracing.py``), the tracing overhead, and the share of the
iteration the layers account for. Spans are written to
``perfbench/out/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_ITERATIONS = 3

# One thread of computation: on a shared two-core host a two-thread BLAS
# pool ran a fixed matrix kernel up to 4x slower, and less steadily, than
# one thread. Set before anything imports numpy; children inherit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYERS, NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Failures, import_library  # noqa: E402


class HostSpeed:
    """How fast the host runs this process right now, from a fixed slice of
    interpreter and numpy work that runs no library code.

    On a shared host the speed this process gets drifts by up to half
    within seconds and stays off for minutes, which moved whole runs of
    unchanged code by 25%. Timed slices taken next to each iteration give
    the speed at that moment: multiplying the iteration's wall time by
    ``NOMINAL_S / slice time`` turns it into seconds on a host where the
    slice takes ``NOMINAL_S``. A change to the library cannot move the
    slice, so it still moves the scaled time in full.
    """

    NOMINAL_S = 0.010
    SLICES = 8
    """Slices timed on each side of an iteration."""

    def __init__(self) -> None:
        import numpy as np

        self.matrix = np.random.default_rng(0).random((48, 48))
        self.tanh = np.tanh

    def slice_s(self) -> float:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(80_000):
            total += i * i % 7
            table[i & 255] = total
        x = a = self.matrix
        for _ in range(120):
            x = self.tanh(x @ a * 0.01) + a[:, :1]
        return time.perf_counter() - start

    def sample(self) -> list[float]:
        return [self.slice_s() for _ in range(self.SLICES)]

    def scale(self, slices: list[float]) -> float:
        """Factor from wall seconds to seconds at the nominal speed."""
        return self.NOMINAL_S / statistics.median(slices)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, capped at the highest percentile that has
    ten samples beyond it and floored at the median."""
    ordered = sorted(values)
    q = max(50.0, min(q, 100.0 * (1 - 10 / len(ordered))))
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Run:
    """Iterations of one workload, with failure accounting."""

    def __init__(self, workload, inputs, host: HostSpeed) -> None:
        self.workload = workload
        self.inputs = inputs
        self.host = host
        self.samples = []
        self.iteration_s: list[float] = []
        self.scales: list[float] = []
        """Per sample, the host-speed factor from wall to nominal seconds."""
        self.attempted = 0
        self.failed = 0

    def iterate(self, tracer=None) -> None:
        workload = self.workload
        tracer = tracer or NullTracer()
        with tracer.span("setup"):
            state = workload.prepare(self.inputs)
        # Start every timed region from the same collector state, so a full
        # collection of the previous iteration's garbage does not land in it.
        gc.collect()
        slices = self.host.sample()
        try:
            start = time.perf_counter()
            with tracer.span("iteration"):
                sample = workload.run(self.inputs, state, tracer)
            self.iteration_s.append(time.perf_counter() - start)
            self.scales.append(self.host.scale(slices + self.host.sample()))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += workload.ops_per_iteration
            self.failed += workload.ops_per_iteration
            return
        finally:
            workload.cleanup(state)
        self.attempted += sample.attempted
        self.failed += sample.failed
        self.samples.append(sample)

    def check(self) -> Failures:
        failures = Failures()
        if self.samples:
            try:
                self.workload.check(self.inputs, self.samples, failures)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failures.expect(False, "output check raised")
        else:
            failures.expect(False, "no iteration completed")
        self.attempted += failures.checks
        self.failed += len(failures.messages)
        for message in failures.messages:
            print(f"check failed: {message}", file=sys.stderr)
        return failures


def measure_setup(workload, seed: int):
    """Import the library, build the inputs and one fresh state; timed, and
    scaled to the nominal host speed by slices taken right after it (the
    slices need numpy, which the library import brings in)."""
    start = time.perf_counter()
    import_library()
    inputs = workload.inputs(seed, OUT / "tmp")
    state = workload.prepare(inputs)
    seconds = time.perf_counter() - start
    host = HostSpeed()
    seconds *= host.scale(host.sample() + host.sample())
    workload.cleanup(state)
    return seconds, inputs, host


def child(args, mode: str) -> dict:
    """Run this script in a fresh interpreter for set-up (and memory)."""
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--child", mode],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"child process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, setup: list[float], peak_mb: float) -> dict:
    """Times are in nominal-speed seconds: each sample's wall times scaled
    by the host speed measured next to it (see :class:`HostSpeed`)."""
    scaled = list(zip(run.samples, run.scales))

    def request_ms(q: float) -> float:
        return 1e3 * statistics.median(
            percentile(s.requests, q) * scale for s, scale in scaled
        )

    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (
            statistics.median(s.work / (s.seconds * scale) for s, scale in scaled),
            "1/s",
        ),
        "request_p50_ms": (request_ms(50), "ms"),
        "request_p99_ms": (request_ms(99), "ms"),
        "peak_mb": (peak_mb, "MB"),
        "success_share": (1.0 - run.failed / run.attempted, "share"),
    }


def per_layer(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per traced iteration: each layer's self seconds and outermost calls,
    the layers' own counters, and how much of the iteration they cover."""
    n = len(traced)
    self_s, calls, root_s = tracer.layer_totals("iteration")
    setup_self, _, setup_s = tracer.layer_totals("setup")
    counts = tracer.counts["iteration"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer.name}.s"] = (self_s.get(layer.name, 0.0) / n, "s")
        metrics[f"{layer.name}.calls"] = (calls[layer.name] / n, "count")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    unattributed = self_s.get("iteration", 0.0)
    metrics.update({
        "mobility.city_markets.markets": (counts["mobility.city_markets.markets"] / n, "count"),
        "marketstack.solve.rows": (counts["marketstack.solve.rows"] / n, "count"),
        "marketstack.live.solves": (counts["marketstack.live.solves"] / n, "count"),
        "marketstack.live.rows_per_solve": (
            ratio(counts["marketstack.live.rows"], counts["marketstack.live.solves"]),
            "count",
        ),
        "service.solve_share": (
            ratio(counts["service.solved_queries"], calls["service.query"]), "share"
        ),
        "queue.released": (counts["queue.released"] / n, "count"),
        "artifacts.hit_ratio": (
            ratio(counts["artifacts.resume_hits"], counts["artifacts.resume_gets"]),
            "share",
        ),
        "trace.iteration_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (
            statistics.median(traced) - statistics.median(untraced), "s"
        ),
        "trace.attributed_share": (1.0 - unattributed / root_s, "share"),
        "trace.unattributed_s": (unattributed / n, "s"),
        "trace.spans": (len(tracer.spans) / n, "count"),
        "setup.s": (setup_s / n, "s"),
        "setup.mobility.city_markets.s": (
            setup_self.get("mobility.city_markets", 0.0) / n, "s"
        ),
    })
    return metrics


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(args, iterations: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": iterations,
        "git_sha": git_sha(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "memory"),
                        help="report this interpreter's set-up time; with "
                        "'memory', also run one iteration and report the "
                        "peak resident memory")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"library source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    first_setup, inputs, host = measure_setup(workload, args.seed)
    run = Run(workload, inputs, host)
    if args.child:
        report = {"setup_s": first_setup}
        if args.child == "memory":
            run.iterate()
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report.update(peak_mb=peak_kb / 1024, attempted=run.attempted,
                          failed=run.failed)
        print(json.dumps(report))
        return 0

    samples = {}
    if args.trace:
        # Traced and untraced iterations alternate, so drift in machine
        # speed lands on both sides of the overhead comparison.
        untraced, tracer = Run(workload, inputs, host), Tracer()
        start = time.perf_counter()
        while len(run.iteration_s) < 2 or time.perf_counter() - start < args.seconds:
            untraced.iterate()
            tracer.patch(LAYERS)
            try:
                run.iterate(tracer)
            finally:
                tracer.unpatch()
        samples["untraced_iteration_s"] = untraced.iteration_s
        run.samples = untraced.samples + run.samples
        run.scales = untraced.scales + run.scales
        run.attempted += untraced.attempted
        run.failed += untraced.failed
        failures = run.check()
        metrics = per_layer(tracer, run.iteration_s, untraced.iteration_s)
        metrics["host.scale"] = (statistics.median(run.scales), "share")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        memory = child(args, "memory")
        setup = [first_setup, memory["setup_s"], child(args, "setup")["setup_s"]]
        run.attempted += memory["attempted"]
        run.failed += memory["failed"]
        start = time.perf_counter()
        while (
            len(run.iteration_s) < MIN_ITERATIONS
            or time.perf_counter() - start < args.seconds
        ):
            run.iterate()
        samples["setup_s"] = setup
        failures = run.check()
        metrics = end_to_end(run, setup, memory["peak_mb"])

    # QueueScheduler's heartbeat thread is told to stop when a drain ends;
    # wait for it so the process leaves nothing running.
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5)

    record = {
        "correct": not failures.messages,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    samples["iteration_s"] = run.iteration_s
    samples["scales"] = run.scales
    info = fingerprint(args, len(run.samples))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps({"fingerprint": info, "samples": samples, **record}, indent=2)
        + "\n"
    )
    print("fingerprint " + json.dumps(info))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
