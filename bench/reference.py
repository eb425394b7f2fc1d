#!/usr/bin/env python3
"""Reference time of ``all_relations`` on the n=8, ranks (3, 5) identity chain.

    python3 bench/reference.py

ROADMAP.md quotes 2.6-4.0 s for this call (2184 relations).  The script
times it REPEATS times under the tracer and prints the median, with the
self time of ``all_relations`` (its dedupe) and of relation generation.
The other n=8 reference points (relation route, containment route, flag)
come from ``run.py --workload chain_accept --trace 1``, label ``n8``.
"""

from __future__ import annotations

import statistics
import sys

import run

N, RANKS = 8, [3, 5]
REPEATS = 3


def main():
    run.import_library()
    from tracing import Tracer
    from tropquiver import quiver

    rep = quiver.identity_chain_representation(N, RANKS)
    tracer = Tracer()
    tracer.install()
    try:
        for op in range(REPEATS):
            tracer.op = op
            kept = len(quiver.all_relations(rep))
    finally:
        tracer.restore()
    durations = [sum(d) for d in tracer.top_level_durations("quiver.all_relations").values()]
    print("all_relations kept %d relations, median %.3f s over %d runs"
          % (kept, statistics.median(durations), len(durations)))
    print("self time, summed over all runs:")
    for name, seconds in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
        print("  %-44s %8.3f s" % (name, seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
