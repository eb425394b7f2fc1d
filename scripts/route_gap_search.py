#!/usr/bin/env python3
"""Search for instances where the two quiver-Dressian membership routes
disagree.

The relation route checks that every tropical quiver Pluecker relation
vanishes (minimum attained at least twice over all terms).  The
containment route maps each cocircuit of the source matroid through the
arrow and tests membership in the target space.  On an arrow with
src != dst, containment acceptance implies relation acceptance, but the
converse fails whenever two relation terms that share a target index tie
at the minimum: the relation route counts the tie as vanishing while the
containment route collapses the pair into a single term.  (On a loop even
the implication fails, because two terms of one relation can be the same
monomial; this script draws only u -> w arrows.)  It measures how often
random instances land in that gap and prints the first few hits.
"""

import argparse
import json
import random
from dataclasses import dataclass

from tropquiver import (
    QuiverRepresentation,
    RepArrow,
    jsonio,
    qdr_membership,
    qdr_membership_via_containment,
)

# the test helpers double as instance generators for experiments
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from helpers import rand_field_matrix, rand_realization  # noqa: E402


@dataclass
class SearchConfig:
    seed: int = 0
    instances: int = 1000
    max_n: int = 5
    max_rank: int = 3
    show: int = 3


def sample(rng, cfg):
    n = rng.randint(2, cfg.max_n)
    r = rng.randint(1, min(cfg.max_rank, n))
    s = rng.randint(1, min(cfg.max_rank, n))
    _, mu = rand_realization(rng, r, n)
    _, nu = rand_realization(rng, s, n)
    arrow = rand_field_matrix(rng, n, n)
    rep = QuiverRepresentation(
        n, ["u", "w"], [RepArrow("u", "w", field=arrow)], {"u": r, "w": s}
    )
    return rep, {"u": mu, "w": nu}


def run(cfg):
    rng = random.Random(cfg.seed)
    hits = []
    accepted = 0
    for it in range(cfg.instances):
        rep, mus = sample(rng, cfg)
        by_relations = qdr_membership(rep, mus)[0]
        by_containment = qdr_membership_via_containment(rep, mus)[0]
        accepted += by_containment
        if by_relations != by_containment:
            hits.append((it, rep, mus))
    print(
        "%d instances: %d accepted by containment, %d in the gap"
        % (cfg.instances, accepted, len(hits))
    )
    for it, rep, mus in hits[: cfg.show]:
        print("\ninstance %d (relations vanish, containment fails):" % it)
        print(
            json.dumps(
                {
                    "quiver": jsonio.representation_to_json(rep),
                    "matroids": jsonio.matroid_tuple_to_json(mus),
                },
                indent=2,
            )
        )
    return hits


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=1000)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--show", type=int, default=3)
    args = parser.parse_args()
    run(
        SearchConfig(
            seed=args.seed,
            instances=args.instances,
            max_n=args.max_n,
            max_rank=args.max_rank,
            show=args.show,
        )
    )


if __name__ == "__main__":
    main()
