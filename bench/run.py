#!/usr/bin/env python3
"""tropquiver benchmark: closed-loop workloads with end-to-end and
per-layer metrics.

    python3 bench/run.py --workload chain_accept --seed 1 --seconds 25 --trace 0

Runs one workload in this process, single-threaded, one client waiting for
each answer.  Without ``--workload`` it runs every workload, each in a
fresh process.  The package is imported from ``src/`` next to this
directory, with no install.  The last line of output is one JSON object:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3   # setup_s is the median of this many setups
MIN_OPS = 100       # so that at least 10 samples lie beyond p90


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="op time to measure (the traced run splits it in two halves)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import tropquiver from ROOT/src, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tropquiver", "__init__.py")):
        sys.exit("bench: no package at %s; run from a full checkout" % SRC)
    sys.path.insert(0, SRC)
    import tropquiver

    if os.path.dirname(os.path.dirname(os.path.abspath(tropquiver.__file__))) != SRC:
        sys.exit("bench: tropquiver was imported from %s, not %s" % (tropquiver.__file__, SRC))


def setup(workload, seed):
    """Build the workload SETUP_REPEATS times from the same seed; return
    the last cycle and the median setup time."""
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, workload)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cycle = WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)), workdir)
        times.append(time.perf_counter() - start)
    return cycle, statistics.median(times)


class Loop:
    """Runs ops of a cycle in order and checks every answer."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = None

    def run(self, index, stats=None):
        """Run op ``index`` of the endless cycle; return (latency, record)."""
        slot = self.cycle[index % len(self.cycle)]
        start = time.perf_counter()
        try:
            answer = slot.run()
        except Exception as exc:  # a failed op, counted and reported
            latency = time.perf_counter() - start
            ok, record = False, ["exception", type(exc).__name__, str(exc)]
        else:
            latency = time.perf_counter() - start
            ok, record = slot.check(answer)
            if stats is not None and slot.stats is not None:
                stats.update(slot.stats(answer))
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append((slot.label, record))
        return latency, record

    def timed(self, seconds, min_ops):
        """Run ops from the start of the cycle until ``seconds`` of op time
        and ``min_ops`` ops are done.  The verdicts and certificates of the
        first cycle make the digest."""
        latencies = []
        records = []
        busy = 0.0
        i = 0
        while busy < seconds or i < min_ops:
            latency, record = self.run(i)
            latencies.append(latency)
            if i < len(self.cycle):
                records.append(record)
            busy += latency
            i += 1
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(text.encode()).hexdigest()
        return latencies, busy


def end_to_end(loop, seconds, setup_s):
    latencies, busy = loop.timed(seconds, max(MIN_OPS, len(loop.cycle)))
    deciles = statistics.quantiles(latencies, n=10)
    return len(latencies), busy, {
        "decisions_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (deciles[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(loop, seconds, workload, seed):
    """Untraced half, then the same ops traced: the ratio of the two is the
    tracing overhead, and the traced half gives the per-layer metrics."""
    from collections import Counter

    from tracing import INFO, Tracer, metric_units, span_names

    latencies, untraced = loop.timed(seconds / 2, min_ops=len(loop.cycle))
    ops = len(latencies)
    tracer = Tracer()
    missing = tracer.install()
    stats = Counter()
    try:
        busy = 0.0
        for i in range(ops):
            tracer.op = i
            latency, _ = loop.run(i, stats)
            busy += latency
    finally:
        tracer.restore()
    for name in missing:
        print("trace: %s not found; its metrics read 0" % name)

    self_s = tracer.self_times()
    values = {}
    for name in span_names():
        values[name + ".calls"] = tracer.calls[name] / ops
        values[name + ".self_s"] = self_s.get(name, 0.0) / ops
    counts = tracer.counts
    rank_calls = tracer.calls["puiseux.rank_via_minors"]
    values.update({
        "quiver.quiver_pluecker_relations.relations":
            counts["quiver.quiver_pluecker_relations.relations"] / ops,
        "quiver.all_relations.kept_ratio":
            counts["all_relations.kept"] / counts["all_relations.generated"]
            if counts["all_relations.generated"] else 0.0,
        "puiseux.rank_via_minors.dets_per_call":
            tracer.dets_under_rank() / rank_calls if rank_calls else 0.0,
        "cli.output_bytes": stats["cli.output_bytes"] / ops,
        "cli.exit_0": stats["cli.exit_0"] / ops,
        "cli.exit_1": stats["cli.exit_1"] / ops,
        "cli.exit_2": stats["cli.exit_2"] / ops,
        "trace.ops": ops,
        "trace.overhead_ratio": busy / untraced,
    })

    # top-level spans by op label: single-op reference times
    by_label = {}
    for name in span_names():
        for op, durations in tracer.top_level_durations(name).items():
            label = loop.cycle[op % len(loop.cycle)].label
            by_label.setdefault((label, name), []).append(sum(durations))
    for (label, name), durations in sorted(by_label.items()):
        print("trace: %-20s %-42s median %9.3f ms over %d ops"
              % (label, name, statistics.median(durations) * 1000, len(durations)))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.tsv" % (workload, seed))
    tracer.write(path)
    print("trace: %d spans written to %s" % (len(tracer.spans), os.path.relpath(path, ROOT)))
    for name, unit in INFO.items():
        print("%-48s %14.6f %s" % (name, values[name], unit))
    units = metric_units()
    return {name: (values[name], units[name]) for name in units}


def run_one(args):
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit("bench: unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    cycle, setup_s = setup(args.workload, args.seed)
    loop = Loop(cycle)
    if args.trace:
        metrics = per_layer(loop, args.seconds, args.workload, args.seed)
    else:
        ops, busy, metrics = end_to_end(loop, args.seconds, setup_s)
        print("%s seed %d: %d timed ops in %.3f s of op time, cycle of %d ops"
              % (args.workload, args.seed, ops, busy, len(cycle)))
    for label, record in loop.failures:
        print("FAILED %s: %s" % (label, json.dumps(record)[:500]))
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6f %s" % (name, value, unit))
    print("%-48s %14.6f %s (%d of %d ops)" % (
        "failure_ratio", loop.failed / loop.attempted, "ratio", loop.failed, loop.attempted))
    print("digest %s seed %d: %s" % (args.workload, args.seed, loop.digest))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    import_library()
    from workloads import WORKLOADS

    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
