"""The shared relation generator against the two loops it replaced.

``reference_grassmann`` and ``reference_quiver`` are the original
Grassmann-Pluecker and quiver Pluecker generators, kept verbatim: the
second visits every (j, i) pair of every (I, J) and branches between the
field and tropical layers on each term.  The original quiver generator also
yielded relations without terms; the library skips them, so the references
are compared after dropping those.  Everything else (values and order of
the yielded (I, J, classical, tropical) tuples, and the ``all_relations``
output) must be identical.
"""

import random
from itertools import combinations

from tropquiver import (
    INF,
    FieldMatrix,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    TropPolynomial,
    all_relations,
    grassmann_pluecker_relations,
    quiver_pluecker_relations,
    valuation,
)
from tropquiver.quiver import _proportional, _trop_projective_key

from helpers import rand_arrow, rand_sparse_puiseux


def _sign(j, i_set, j_set):
    flips = sum(1 for jp in j_set if j < jp) + sum(1 for i in i_set if i > j)
    return -1 if flips % 2 else 1


def _collect(terms):
    """Sum classical coefficients over equal monomials; drop zeros."""
    acc = {}
    for coeff, mono in terms:
        acc[mono] = acc.get(mono, PuiseuxElement()) + coeff
    return tuple(sorted((m, c) for m, c in acc.items() if not c.is_zero))


def _tropicalize(classical):
    return TropPolynomial((valuation(c), m) for m, c in classical)


def reference_grassmann(n, r, tag):
    for i_set in combinations(range(1, n + 1), r - 1):
        for j_set in combinations(range(1, n + 1), r + 1):
            raw = []
            for j in j_set:
                if j in i_set:
                    continue
                coeff = PuiseuxElement.const(_sign(j, i_set, j_set))
                left = (tag, tuple(sorted(i_set + (j,))))
                right = (tag, tuple(e for e in j_set if e != j))
                raw.append((coeff, tuple(sorted((left, right)))))
            classical = _collect(raw)
            if classical:
                yield i_set, j_set, classical, _tropicalize(classical)


def reference_quiver(rep, a_idx):
    arrow = rep.arrows[a_idx]
    n = rep.n
    r = rep.dim[arrow.src]
    s = rep.dim[arrow.dst]
    field = arrow.field
    tmat = rep.trop_matrix(a_idx)
    for i_set in combinations(range(1, n + 1), r - 1):
        for j_set in combinations(range(1, n + 1), s + 1):
            raw_classical = []
            raw_tropical = []
            for j in range(1, n + 1):
                if j in i_set:
                    continue
                left = (arrow.src, tuple(sorted(i_set + (j,))))
                for i in j_set:
                    right = (arrow.dst, tuple(e for e in j_set if e != i))
                    mono = tuple(sorted((left, right)))
                    if field is not None:
                        entry = field.entry(i - 1, j - 1)
                        if entry.is_zero:
                            continue
                        coeff = entry if _sign(j, i_set, j_set) > 0 else -entry
                        raw_classical.append((coeff, mono))
                    else:
                        tv = tmat.entry(i - 1, j - 1)
                        if tv.is_inf:
                            continue
                        raw_tropical.append((tv, mono))
            if field is not None:
                classical = _collect(raw_classical)
                yield i_set, j_set, classical, _tropicalize(classical)
            else:
                yield i_set, j_set, None, TropPolynomial.merged(raw_tropical)


def nonvacuous(relations):
    return [rel for rel in relations if rel[3].terms]


def reference_all_relations(rep):
    """The original dedupe loop, fed the reference relations without the
    vacuous ones (on which the original crashed or kept an empty relation)."""
    out = []
    seen_classical = {}
    seen_tropical = set()

    def push(kind, where, i_set, j_set, classical, tropical):
        if classical is not None:
            bucket = seen_classical.setdefault(tuple(m for m, _ in classical), [])
            if any(_proportional(prev, classical) for prev in bucket):
                return
            bucket.append(classical)
        else:
            key = _trop_projective_key(tropical)
            if key in seen_tropical:
                return
            seen_tropical.add(key)
        out.append({"kind": kind, "where": where, "I": i_set, "J": j_set,
                    "classical": classical, "tropical": tropical})

    for v in rep.vertices:
        for rel in reference_grassmann(rep.n, rep.dim[v], v):
            push("vertex", v, *rel)
    for a_idx in range(len(rep.arrows)):
        for rel in nonvacuous(reference_quiver(rep, a_idx)):
            push("arrow", a_idx, *rel)
    return out


def assert_same_relations(rep, a_idx):
    got = list(quiver_pluecker_relations(rep, a_idx))
    assert got == nonvacuous(reference_quiver(rep, a_idx)), rep.arrows[a_idx]
    return got


def test_random_arrows_match_reference():
    rng = random.Random(20231201)
    layers, vacuous = set(), 0
    for _ in range(300):
        n = rng.randint(1, 5)
        r, s = rng.randint(1, n), rng.randint(1, n)
        rep = QuiverRepresentation(n, ["u", "w"], [rand_arrow(rng, n, "u", "w")],
                                   {"u": r, "w": s})
        got = assert_same_relations(rep, 0)
        vacuous += len(list(reference_quiver(rep, 0))) - len(got)
        layers.add(rep.arrows[0].field is not None)
    assert layers == {True, False}
    assert vacuous > 0


def test_loops_match_reference():
    """src == dst: the two factors of a term share a vertex, so distinct
    (i, j) pairs can give one monomial and their coefficients can cancel;
    on a scalar multiple of the identity whole relations cancel."""
    rng = random.Random(20231202)
    seen = {"field collision": 0, "full cancellation": 0, "tropical collision": 0}
    for k in range(200):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        if k % 4 == 0:
            c = rand_sparse_puiseux(rng, 1.0)
            arrow = RepArrow("v", "v", field=FieldMatrix(
                [[c if i == j else 0 for j in range(n)] for i in range(n)]))
        else:
            arrow = rand_arrow(rng, n, "v", "v")
        rep = QuiverRepresentation(n, ["v"], [arrow], {"v": r})
        assert_same_relations(rep, 0)
        tmat = rep.trop_matrix(0)
        for i_set, j_set, _, tropical in reference_quiver(rep, 0):
            n_terms = sum(1 for j in range(1, n + 1) if j not in i_set for i in j_set
                          if not tmat.entry(i - 1, j - 1).is_inf)
            if len(tropical.terms) < n_terms:
                if arrow.field is None:
                    seen["tropical collision"] += 1
                elif tropical.terms:
                    seen["field collision"] += 1
                else:
                    seen["full cancellation"] += 1
    assert all(seen.values()), seen


def test_every_rank_pair_matches_reference():
    rng = random.Random(20231203)
    for n in range(1, 6):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                for _ in range(3):
                    rep = QuiverRepresentation(
                        n, ["u", "w"], [rand_arrow(rng, n, "u", "w")], {"u": r, "w": s}
                    )
                    assert_same_relations(rep, 0)


def test_identity_and_zero_arrows_match_reference():
    for n in range(1, 6):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                arrows = [
                    RepArrow("u", "w", field=FieldMatrix.identity(n)),
                    RepArrow("u", "w", trop=TropMatrix.identity(n)),
                    RepArrow("u", "w", field=FieldMatrix([[0] * n] * n)),
                    RepArrow("u", "w", trop=TropMatrix([[INF] * n] * n)),
                ]
                rep = QuiverRepresentation(n, ["u", "w"], arrows, {"u": r, "w": s})
                for a_idx in range(len(arrows)):
                    assert_same_relations(rep, a_idx)


def test_grassmann_matches_reference():
    for n in range(1, 7):
        for r in range(1, n + 1):
            for tag in ("p", ("vertex", 1)):
                assert list(grassmann_pluecker_relations(n, r, tag)) == list(
                    reference_grassmann(n, r, tag)
                )


def test_all_relations_matches_reference():
    rng = random.Random(20231204)
    for _ in range(60):
        n = rng.randint(1, 4)
        vertices = ["a", "b", "c"][: rng.randint(1, 3)]
        dim = {v: rng.randint(1, n) for v in vertices}
        arrows = [rand_arrow(rng, n, rng.choice(vertices), rng.choice(vertices))
                  for _ in range(rng.randint(1, 3))]
        rep = QuiverRepresentation(n, vertices, arrows, dim)
        got = all_relations(rep)
        assert got == reference_all_relations(rep), rep.arrows
        assert all(rel["tropical"].terms for rel in got)
