"""Benchmark of the starshift toolkit: one workload, one seed, one run.

    python3 bench/run.py --workload relator-survival --seed 7 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
One client runs the seeded operation list in a closed loop on one thread.
Every result is checked; the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md
describes the workloads, the checks and the metrics.

``--trace 0`` reports the end-to-end metrics: throughput, latency p50 and
p90 over the operations, set-up time (median of fresh interpreters that
import the package and fill its caches), peak resident memory and the
share of operations whose check passed.  Times are at the reference speed
of ``speed.py``.

``--trace 1`` reports the per-layer metrics of ``tracing.PER_LAYER``.  The
operation list runs traced, untraced (for the tracing overhead) and traced
again over its first half, whose counts must repeat exactly.  Spans go to
``.bench_trace/<workload>.spans.csv``.

``--wrong-expectation`` flips the expectation of every negative-control
operation, to show that a failed check is counted.
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
import time
from pathlib import Path

import setup_probe
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
REPEATS = 4
SPAN_DIR = HERE.parent / ".bench_trace"


def measure_setup() -> tuple[float, float]:
    """Median time of fresh interpreters running the set-up phase, at the
    reference speed and as read on the wall clock."""
    clock = speed.Speed()
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = clock.sample()
        start = time.perf_counter()
        # no timeout: waiting with one polls, which rounds the figure up
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")], check=True)
        raw.append(time.perf_counter() - start)
        clock.sample()
        scaled.append(raw[-1] * clock.scale(before))
    return statistics.median(scaled), statistics.median(raw)


def run_ops(ops, program, start=0, stop=None):
    """Run ops[start:stop] in order.  Returns the wall times, the same
    scaled to the reference speed, and the number of failed operations.
    With a tracer on the program, each operation is a root span."""
    tracer = program.tracer
    clock = speed.Speed()
    raw, marks = [], []
    failed = 0
    gc.collect()
    for index in range(start, len(ops) if stop is None else stop):
        op = ops[index]
        marks.append(clock.latest())
        if tracer is not None:
            tracer.op = index
            tracer.enter(f"bench.op.{op.kind}")
        begin = time.perf_counter()
        try:
            got = op.call(program)
        except Exception as exc:  # a crash is a failed operation, keep going
            got = exc
        raw.append(time.perf_counter() - begin)
        if tracer is not None:
            tracer.exit(f"bench.op.{op.kind}")
        try:
            ok = not isinstance(got, Exception) and op.check(got)
        except (KeyError, TypeError, ValueError, IndexError):  # malformed output
            ok = False
        if not ok:
            failed += 1
            print(f"FAILED op {index} ({op.kind}): {got!r:.200}", file=sys.stderr)
    clock.sample()
    scaled = [t * clock.scale(mark) for t, mark in zip(raw, marks)]
    return raw, scaled, failed


def end_to_end(args, package, cli) -> dict:
    """REPEATS passes over the list, each from an empty language-oracle
    cache as in a fresh process.  Times are scaled to the reference speed
    (speed.py) and an operation counts with the median of its passes, which
    drops stray stalls that the kernel samples around it did not catch."""
    setup_s, setup_raw = measure_setup()
    setup_probe.warm_up(package)
    ops = workloads.build(args.workload, args.seed, args.seconds / REPEATS,
                          args.wrong_expectation)
    program = workloads.Program(package, cli)
    raw_passes, passes = [], []
    failed = 0
    for _ in range(REPEATS):
        package.core_words.language_contains.cache_clear()
        raw, scaled, pass_failed = run_ops(ops, program)
        raw_passes.append(raw)
        passes.append(scaled)
        failed += pass_failed
    typical = [statistics.median(times) for times in zip(*passes)]
    raw_typical = [statistics.median(times) for times in zip(*raw_passes)]
    print(
        f"wall clock: set-up {setup_raw:.4f} s, operations {sum(map(sum, raw_passes)):.3f} s,"
        f" {len(ops) / sum(raw_typical):.4f} ops/s,"
        f" p50 {statistics.median(raw_typical) * 1e3:.4f} ms"
    )
    deciles = statistics.quantiles(typical, n=10, method="inclusive")
    attempted = len(ops) * REPEATS
    metrics = {
        "throughput_ops_s": (len(ops) / sum(typical), "1/s"),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return result(attempted, failed, failed == 0, metrics)


def traced(args, package, cli) -> dict:
    """Traced pass over the whole list (set-up included), untraced pass for
    the overhead, then a second traced pass over the first half whose
    counts must equal those of the first pass's first half.  Each pass
    starts with an empty language-oracle cache, as a fresh process does."""
    language_cache = package.core_words.language_contains
    ops = workloads.build(args.workload, args.seed, args.seconds / REPEATS,
                          args.wrong_expectation)
    half = max(1, len(ops) // 2)
    program = workloads.Program(package, cli)

    tracer = tracing.Tracer()
    installed = tracing.Installation(package, tracer)
    with tracer.span("bench.setup"):
        setup_probe.warm_up(package)
    language_cache.cache_clear()
    program.tracer = tracer
    before = tracing.Snapshot(installed)
    _, first_scaled, failed = run_ops(ops, program, stop=half)
    first_half = tracing.Snapshot(installed).minus(before)
    _, rest_scaled, rest_failed = run_ops(ops, program, start=half)
    failed += rest_failed
    whole = tracing.Snapshot(installed).minus(before)
    installed.uninstall()
    traced_s = sum(first_scaled) + sum(rest_scaled)

    language_cache.cache_clear()
    program.tracer = None
    _, plain, plain_failed = run_ops(ops, program)
    plain_s = sum(plain)

    language_cache.cache_clear()
    program.tracer = tracing.Tracer()
    again = tracing.Installation(package, program.tracer)
    before = tracing.Snapshot(again)
    _, _, again_failed = run_ops(ops, program, stop=half)
    repeated = tracing.Snapshot(again).minus(before)
    again.uninstall()
    failed += plain_failed + again_failed
    deterministic = repeated.counts == first_half.counts
    if not deterministic:
        diff = sorted(set(repeated.counts.items()) ^ set(first_half.counts.items()))
        print(f"trace counts differ between passes: {diff[:10]}", file=sys.stderr)

    tracer.write_spans(SPAN_DIR / f"{args.workload}.spans.csv")
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name == "bench.trace_overhead_ratio":
            value = traced_s / plain_s
        elif name.endswith(".cache_hit_ratio"):
            value = whole.hit_ratio(name.rpartition(".")[0])
        else:
            value = tracer.stat(name)
        metrics[name] = (value, unit)
    return result(2 * len(ops) + half, failed, failed == 0 and deterministic, metrics)


def result(attempted: int, failed: int, correct: bool, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-expectation", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        package, cli = setup_probe.import_starshift()
    except ImportError as exc:
        print(f"cannot import starshift from this checkout: {exc}", file=sys.stderr)
        return 2
    import numpy

    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={numpy.__version__}"
    )
    out = (traced if args.trace else end_to_end)(args, package, cli)
    for name, metric in out["metrics"].items():
        print(f"{name:50s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {out['attempted']}  failed {out['failed']}  correct {out['correct']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
