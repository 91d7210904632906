"""binprov benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports binprov from ``src/``.
Set-up makes every input from ``--seed`` (three times; the median is
``setup_s``), then requests run back to back, each checked against its
known answer outside the timed part, until ``--seconds`` have passed.
Every end-to-end time is scaled to a machine of fixed speed by a reference
task timed around it (``speed.py``); the wall times are printed beside.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` runs every
request both untraced and traced, and prints every per-layer metric, the
layer mix and the tracing overhead; spans are written to
``.perfbench_work/``. Both print a human-readable table, a digest of the
outputs of the first requests (equal digests mean bit-identical outputs),
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
P90_MIN_REQUESTS = 100  # at least ten requests beyond the 90th percentile
PROBLEMS_SHOWN = 5

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_binprov():
    """Import binprov from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import binprov
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import binprov from {SRC}: {exc}")
    if SRC not in Path(binprov.__file__).resolve().parents:
        sys.exit(f"perfbench: binprov imported from {binprov.__file__}, not from {SRC}")


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    # Each latency scaled to the reference speed (run_loop only).
    scaled: list[float] = field(default_factory=list)
    records: list[str] = field(default_factory=list)
    failed: int = 0
    broken: int = 0
    problems: list[str] = field(default_factory=list)
    fresh_builds: list[int] = field(default_factory=list)
    t_infer: list[int] = field(default_factory=list)
    mismatched: int = 0
    matchable: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_request(workload, state, i: int, result: LoopResult, tracer=None) -> None:
    """Run request ``i``, time it, check it and add it to ``result``."""
    from binprov.buildoracle import SimulatedToolchain
    from workloads import Outcome, record_hash

    toolchain = SimulatedToolchain if tracer is None else tracer.Toolchain
    # Each request stands for one CLI invocation, which starts with no
    # garbage from earlier work: collect before the clock starts.
    gc.collect()
    t0 = perf_counter()
    try:
        if tracer is None:
            output = workload.request(state, i, toolchain)
        else:
            output = tracer.run_request(i, workload.request, state, i, toolchain)
    except Exception as exc:  # a raising request is a counted failure
        result.latencies.append(perf_counter() - t0)
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(record=f"raised {type(exc).__name__}: {exc}",
                          problems=[f"request {i} raised {type(exc).__name__}: {exc}"],
                          broken=True)
    else:
        result.latencies.append(perf_counter() - t0)
        outcome = workload.check(state, i, output)
        del output
    result.records.append(record_hash(outcome.record))
    if outcome.problems:
        result.failed += 1
        result.problems.extend(outcome.problems)
    result.broken += outcome.broken
    if outcome.fresh_builds is not None:
        result.fresh_builds.append(outcome.fresh_builds)
    if outcome.t_infer is not None:
        result.t_infer.append(outcome.t_infer)
    result.mismatched += outcome.mismatched
    result.matchable += outcome.matchable


def keep_going(workload, i: int, start: float, seconds: float) -> bool:
    """Time is only up at a whole cycle boundary, so every run sees the same
    mix of inputs."""
    return i % workload.cycle != 0 or perf_counter() - start < seconds


def run_loop(workload, state, *, seconds=None, count=None, tracer=None) -> LoopResult:
    """Closed loop: the next request starts when the previous one is checked.
    Runs ``count`` requests, or as many as ``seconds`` allow."""
    result = LoopResult()
    probe = SpeedProbe()
    before, starts = [], []
    start = perf_counter()
    i = 0
    while i < count if count is not None else keep_going(workload, i, start, seconds):
        before.append(probe.sample_if_due())
        starts.append(perf_counter())
        run_request(workload, state, i, result, tracer)
        i += 1
    probe.sample()
    result.scaled = [
        t * probe.scale(t0, t0 + t, k) for t, t0, k in zip(result.latencies, starts, before)
    ]
    return result


def timed_setup(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; returns the state and the median
    set-up time, scaled and on the wall clock."""
    probe = SpeedProbe()
    wall, scaled = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous inputs go before building new ones
        shutil.rmtree(WORK / workload.name, ignore_errors=True)
        before = probe.sample()
        t0 = perf_counter()
        state = workload.setup(seed, WORK)
        wall.append(perf_counter() - t0)
        probe.sample()
        scaled.append(wall[-1] * probe.scale(t0, t0 + wall[-1], before))
    # The bench's own inputs and answers are not the program's heap: keep
    # them out of every collection a request triggers.
    gc.collect()
    gc.freeze()
    return state, statistics.median(scaled), statistics.median(wall)


def digest(workload, loop: LoopResult) -> str:
    from workloads import record_hash

    n = workload.digest_requests
    if loop.attempted < n:
        return f"incomplete: {loop.attempted} of the first {n} requests ran"
    return f"sha256:{record_hash(''.join(loop.records[:n]))} over requests 0-{n - 1}"


def line(name: str, value, unit: str = "", note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<6} {note}".rstrip())


def end_to_end(workload, loop: LoopResult, setup_s: float, wall_setup_s: float) -> dict[str, float]:
    lat = loop.scaled
    n = loop.attempted
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "requests_per_s": n / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    print("  times scaled to the reference speed (speed.py):")
    line("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups")
    line("latency_p50_s", metrics["latency_p50_s"], "s", f"{n} requests")
    if n >= P90_MIN_REQUESTS:
        line("latency_p90_s", statistics.quantiles(lat, n=10)[8], "s", f"{n} requests")
    else:
        line("latency_p90_s", "n/a", "s", f"needs {P90_MIN_REQUESTS} requests, ran {n}")
    line("requests_per_s", metrics["requests_per_s"], "1/s", "one closed-loop client")
    print("  wall-clock times:")
    line("setup_s", wall_setup_s, "s", f"median of {SETUP_REPEATS} set-ups")
    line("latency_p50_s", statistics.median(loop.latencies), "s", f"{n} requests")
    if n >= P90_MIN_REQUESTS:
        line("latency_p90_s", statistics.quantiles(loop.latencies, n=10)[8], "s", f"{n} requests")
    line("requests_per_s", n / sum(loop.latencies), "1/s", "one closed-loop client")
    print("  outputs and counts:")
    line("failed_frac", loop.failed / n, "frac", f"{loop.failed} of {n} requests differ from the known answer")
    line("broken_frac", loop.broken / n, "frac", f"{loop.broken} of {n} requests raised or broke a guarantee")
    if loop.fresh_builds:
        line("builds_per_request", statistics.mean(loop.fresh_builds), "1/req", "fresh builds")
    else:
        line("builds_per_request", "n/a", "1/req", f"{workload.name} builds nothing")
    if loop.t_infer:
        line("t_infer_mean", statistics.mean(loop.t_infer), "probes", "InferenceTrace.t_infer")
    else:
        line("t_infer_mean", "n/a", "probes", f"{workload.name} infers no options")
    line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss, set-up and 8 MB reference array included")
    if loop.matchable:
        line("mismatched_frac", loop.mismatched / loop.matchable, "frac",
             f"{loop.mismatched} of {loop.matchable} corresponding functions")
    return metrics


def traced(workload, state, seconds: float):
    """Run each request both untraced and traced, back to back and in
    alternating order, so drifts in machine speed and warm-up effects cancel
    out of the overhead; returns both loops and the per-layer metrics."""
    from tracer import LAYERS, Tracer, layer_metrics

    plain, traced_loop, tracer = LoopResult(), LoopResult(), Tracer()
    start = perf_counter()
    i = 0
    while keep_going(workload, i, start, seconds):
        if i % 2 == 0:
            run_request(workload, state, i, plain)
        with tracer.rebound():
            run_request(workload, state, i, traced_loop, tracer)
        if i % 2 == 1:
            run_request(workload, state, i, plain)
        i += 1
    metrics = layer_metrics(tracer, traced_loop.attempted)
    metrics["trace.overhead_frac"] = sum(traced_loop.latencies) / sum(plain.latencies) - 1
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}.jsonl"
    tracer.write(spans_path)

    request_s = metrics["trace.request_s"]
    covered = {layer: metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS if layer != "gc"}
    covered["gc"] = metrics["gc.pause_s"]
    residual = request_s - sum(covered.values()) - metrics["trace.uncovered_s"]
    print(f"  layer mix (self time per traced request, {request_s:.6g} s):")
    for layer, value in sorted(covered.items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"    {layer:<12} {value:>12.6g} s {100 * value / request_s:6.2f}%")
    uncovered = metrics["trace.uncovered_s"]
    print(f"    {'(uncovered)':<12} {uncovered:>12.6g} s {100 * uncovered / request_s:6.2f}%")
    print(f"  self times + uncovered - request time = {residual:.3g} s")
    print(f"  {len(tracer)} spans written to {spans_path.relative_to(ROOT)}")
    return plain, traced_loop, metrics


def metric_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_s"):
        return "s/req"
    return "1/req"


def main(argv=None) -> int:
    _import_binprov()
    logging.getLogger("binprov").addHandler(logging.NullHandler())
    logging.getLogger("binprov").propagate = False
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    state, setup_s, wall_setup_s = timed_setup(workload, args.seed)

    if args.trace == 0:
        loop = run_loop(workload, state, seconds=args.seconds)
        metrics = end_to_end(workload, loop, setup_s, wall_setup_s)
        units = END_TO_END_UNITS
        correct = loop.broken == 0
    else:
        line("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups, scaled")
        plain, loop, metrics = traced(workload, state, args.seconds)
        units = {name: metric_unit(name) for name in metrics}
        same = plain.records == loop.records
        print(f"  traced outputs {'equal' if same else 'DIFFER FROM'} the untraced outputs"
              f" over {loop.attempted} requests")
        correct = plain.broken == 0 and loop.broken == 0 and same
        for name, value in metrics.items():
            line(name, value, units[name])

    print(f"  digest {digest(workload, loop)}")
    for problem in loop.problems[:PROBLEMS_SHOWN]:
        print(f"  mismatch: {problem}")
    if len(loop.problems) > PROBLEMS_SHOWN:
        print(f"  ... {len(loop.problems) - PROBLEMS_SHOWN} more mismatches")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        # Only requests that raised or broke an exact guarantee failed as
        # operations; recovery misses are in the table's failed_frac.
        "failed": loop.broken,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
