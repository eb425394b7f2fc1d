"""The relation generator and dedupe over scaled integers against the
code they replaced.

``_relations``, ``_merge_field``, ``_merge_trop``, ``_proportional`` and
``_trop_projective_key`` below are the previous generator and dedupe, kept
verbatim, and ``_merged`` is the body of the ``TropPolynomial.merged``
classmethod that ``_merge_trop`` called: every addition there is a
Puiseux sum and every comparison a Puiseux product.
``reference_grassmann``, ``reference_quiver`` and
``reference_all_relations`` are the previous bodies of the three public
functions, without the walk cap (tested in test_quiver).  Values and order
of the yielded (I, J, classical, tropical) tuples and of the
``all_relations`` output (dict key order included) must be identical.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

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
    identity_chain_representation,
    quiver_pluecker_relations,
    valuation,
)
from tropquiver.trop import _coerce

from helpers import rand_arrow, rand_scaled_arrow, rand_sparse_puiseux

ZERO = PuiseuxElement()
ONE = PuiseuxElement.const(1)


def _sign(j, i_set, j_set):
    flips = sum(1 for jp in j_set if j < jp) + sum(1 for i in i_set if i > j)
    return -1 if flips % 2 else 1


def _merge_field(raw):
    """Classical layer of signed (sign, entry, monomial) terms: coefficients
    summed over equal monomials, zeros dropped; then its tropicalization."""
    acc = {}
    for sign, entry, mono in raw:
        acc[mono] = acc.get(mono, ZERO) + (entry if sign > 0 else -entry)
    classical = tuple(sorted((m, c) for m, c in acc.items() if not c.is_zero))
    return classical, TropPolynomial((valuation(c), m) for m, c in classical)


def _merged(cls, terms):
    """Build from raw terms, merging duplicate exponents by minimum."""
    table = {}
    for coeff, expo in terms:
        expo = tuple(sorted(expo))
        coeff = _coerce(coeff)
        if expo not in table or coeff < table[expo]:
            table[expo] = coeff
    return cls((c, e) for e, c in sorted(table.items()))


def _merge_trop(raw):
    """Tropical layer only: signs vanish, colliding monomials merge by minimum."""
    return None, _merged(TropPolynomial, ((entry, mono) for _, entry, mono in raw))


def _relations(n, r, s, src, dst, columns, merge):
    """Pluecker relations of a matrix M from a rank-r source to a rank-s
    target, given by its nonzero (tropically: finite) entries per column as
    (j, [(i, M[i][j])]), 1-based.  Yields (I, J, classical, tropical) for
    every (r-1)-subset I and (s+1)-subset J with terms
    sign(j;I,J) * M[i][j] * p_{I+j} * q_{J-i}; merge turns the raw
    (sign, entry, monomial) terms into the layer's (classical, tropical)
    pair.  Relations without terms are skipped."""
    for i_set in combinations(range(1, n + 1), r - 1):
        for j_set in combinations(range(1, n + 1), s + 1):
            raw = []
            for j, entries in columns:
                if j in i_set:
                    continue
                left = (src, tuple(sorted(i_set + (j,))))
                sign = _sign(j, i_set, j_set)
                for i, entry in entries:
                    if i in j_set:
                        right = (dst, tuple(e for e in j_set if e != i))
                        raw.append((sign, entry, tuple(sorted((left, right)))))
            classical, tropical = merge(raw)
            if tropical.terms:
                yield i_set, j_set, classical, tropical


def _proportional(c1, c2):
    """Is one of two classical relations on the same monomials, in the same
    order, a scalar multiple of the other?"""
    lead1, lead2 = c1[0][1], c2[0][1]
    return all(a * lead2 == b * lead1 for (_, a), (_, b) in zip(c1, c2))


def _trop_projective_key(poly: TropPolynomial):
    """poly up to a common shift of its coefficients, all finite (merged
    from finite entries)."""
    shift = min(c.value for c, _ in poly.terms)
    return tuple(sorted((m, c.value - shift) for c, m in poly.terms))


def reference_grassmann(n, r, tag):
    identity = [(j, [(j, ONE)]) for j in range(1, n + 1)]
    yield from _relations(n, r, r, tag, tag, identity, _merge_field)


def reference_quiver(rep, a_idx):
    arrow = rep.arrows[a_idx]
    if arrow.field is not None:
        rows, absent, merge = arrow.field.rows, ZERO, _merge_field
    else:
        rows, absent, merge = arrow.trop.rows, INF, _merge_trop
    columns = []
    for j in range(rep.n):
        entries = [(i + 1, row[j]) for i, row in enumerate(rows) if row[j] != absent]
        if entries:
            columns.append((j + 1, entries))
    yield from _relations(rep.n, rep.dim[arrow.src], rep.dim[arrow.dst],
                          arrow.src, arrow.dst, columns, merge)


def reference_all_relations(rep):
    out = []
    seen_classical = {}  # monomial support -> classical relations kept
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
        out.append(
            {
                "kind": kind,
                "where": where,
                "I": i_set,
                "J": j_set,
                "classical": classical,
                "tropical": tropical,
            }
        )

    for v in rep.vertices:
        for i_set, j_set, classical, tropical in reference_grassmann(
            rep.n, rep.dim[v], v
        ):
            push("vertex", v, i_set, j_set, classical, tropical)
    for a_idx in range(len(rep.arrows)):
        for i_set, j_set, classical, tropical in reference_quiver(rep, a_idx):
            push("arrow", a_idx, i_set, j_set, classical, tropical)
    return out


def assert_same_relations(rep, a_idx):
    got = list(quiver_pluecker_relations(rep, a_idx))
    assert got == list(reference_quiver(rep, a_idx)), rep.arrows[a_idx]
    return got


def assert_same_all_relations(rep):
    got = all_relations(rep)
    want = reference_all_relations(rep)
    assert got == want, rep.arrows
    # equal dicts may still differ in key order, which the CLI prints
    assert [list(rel) for rel in got] == [list(rel) for rel in want]
    for g, w in zip(got, want):
        assert g["tropical"].terms == w["tropical"].terms
    return got


def rows_scaled_apart(arrow):
    """Do two rows of the arrow's field layer need different coefficient
    scales (lcm of the row's coefficient denominators)?"""
    if arrow.field is None:
        return False
    scales = {reduce(lcm, (c.denominator for x in row for _, c in x.terms()), 1)
              for row in arrow.field.rows}
    return len(scales) > 1


def fractional_exponents(arrow):
    if arrow.field is not None:
        exps = [e for row in arrow.field.rows for x in row for e, _ in x.terms()]
    else:
        exps = [x.value for row in arrow.trop.rows for x in row if x.is_finite]
    return {e.denominator for e in exps} - {1}


def test_random_arrows_match_reference():
    rng = random.Random(20231201)
    seen = {"field": 0, "tropical": 0, "rows scaled apart": 0, "exponents over 2": 0,
            "exponents over 3": 0}
    for k in range(400):
        n = rng.randint(1, 5)
        r, s = rng.randint(1, n), rng.randint(1, n)
        draw = rand_scaled_arrow if k % 2 else rand_arrow
        arrow = draw(rng, n, "u", "w")
        rep = QuiverRepresentation(n, ["u", "w"], [arrow], {"u": r, "w": s})
        if assert_same_relations(rep, 0):
            seen["field" if arrow.field is not None else "tropical"] += 1
            seen["rows scaled apart"] += rows_scaled_apart(arrow)
            dens = fractional_exponents(arrow)
            seen["exponents over 2"] += 2 in dens
            seen["exponents over 3"] += 3 in dens
    assert all(seen.values()), seen


def test_loops_match_reference():
    """src == dst: the two factors of a term share a vertex, so distinct
    (i, j) pairs can give one monomial and their coefficients can cancel;
    on a scalar multiple of the identity whole relations cancel."""
    rng = random.Random(20231202)
    seen = {"field collision": 0, "full cancellation": 0, "tropical collision": 0,
            "rows scaled apart": 0}
    for k in range(240):
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        if k % 4 == 0:
            c = rand_sparse_puiseux(rng, 1.0)
            arrow = RepArrow("v", "v", field=FieldMatrix(
                [[c if i == j else 0 for j in range(n)] for i in range(n)]))
        else:
            arrow = (rand_scaled_arrow if k % 4 == 1 else rand_arrow)(rng, n, "v", "v")
        rep = QuiverRepresentation(n, ["v"], [arrow], {"v": r})
        got = {(i_set, j_set): tropical
               for i_set, j_set, _, tropical in assert_same_relations(rep, 0)}
        tmat = rep.trop_matrix(0)
        for i_set in combinations(range(1, n + 1), r - 1):
            for j_set in combinations(range(1, n + 1), r + 1):
                n_terms = sum(1 for j in range(1, n + 1) if j not in i_set for i in j_set
                              if not tmat.entry(i - 1, j - 1).is_inf)
                tropical = got.get((i_set, j_set))
                if tropical is None:
                    seen["full cancellation"] += n_terms > 0
                elif len(tropical.terms) < n_terms:
                    seen["tropical collision" if arrow.field is None
                         else "field collision"] += 1
                    seen["rows scaled apart"] += rows_scaled_apart(arrow)
        assert_same_all_relations(rep)
    assert all(seen.values()), seen


def test_every_rank_pair_matches_reference():
    rng = random.Random(20231203)
    for n in range(1, 6):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                for draw in (rand_arrow, rand_scaled_arrow) * 2:
                    rep = QuiverRepresentation(
                        n, ["u", "w"], [draw(rng, n, "u", "w")], {"u": r, "w": s}
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


def test_identity_chains_match_reference():
    kept = {}
    for n, ranks in ((5, (2, 3)), (6, (2, 4)), (7, (3, 5)), (8, (3, 5))):
        rep = identity_chain_representation(n, ranks)
        kept[n] = len(assert_same_all_relations(rep))
    assert kept[7] == 392 and kept[8] == 2184, kept


def test_grassmann_matches_reference():
    for n in range(1, 7):
        for r in range(1, n + 1):
            for tag in ("p", ("vertex", 1)):
                assert list(grassmann_pluecker_relations(n, r, tag)) == list(
                    reference_grassmann(n, r, tag)
                )


def test_all_relations_matches_reference():
    """Quivers of one to three arrows, drawn from both layers, with and
    without fractional data; parallel arrows and loops make relations of
    different arrows and vertices meet in the dedupe."""
    rng = random.Random(20231204)
    seen = {"both layers": 0, "rows scaled apart": 0, "dropped": 0}
    for k in range(120):
        n = rng.randint(1, 4)
        vertices = ["a", "b", "c"][: rng.randint(1, 3)]
        dim = {v: rng.randint(1, n) for v in vertices}
        draw = rand_scaled_arrow if k % 2 else rand_arrow
        arrows = [draw(rng, n, rng.choice(vertices), rng.choice(vertices))
                  for _ in range(rng.randint(1, 3))]
        rep = QuiverRepresentation(n, vertices, arrows, dim)
        got = assert_same_all_relations(rep)
        assert all(rel["tropical"].terms for rel in got)
        generated = sum(len(list(reference_grassmann(n, dim[v], v))) for v in vertices) + sum(
            len(list(reference_quiver(rep, a_idx))) for a_idx in range(len(arrows)))
        seen["dropped"] += generated > len(got)
        seen["both layers"] += len({a.field is None for a in arrows}) == 2
        seen["rows scaled apart"] += any(map(rows_scaled_apart, arrows))
    assert all(seen.values()), seen


def test_relations_of_different_exponent_scales_stay_apart():
    """diag(1, t^(1/2)) and diag(1, t), scaled each by its own exponent
    denominators, would both read diag(1, t^1); their relations
    p_1 q_2 - t^(1/2) p_2 q_1 and p_1 q_2 - t p_2 q_1 are not proportional,
    and neither are the tropical ones of diag(0, 1/2) and diag(0, 1)."""
    half, one = Fraction(1, 2), Fraction(1)
    arrows = [
        RepArrow("u", "w", field=FieldMatrix([[1, 0], [0, PuiseuxElement.t_power(half)]])),
        RepArrow("u", "w", field=FieldMatrix([[1, 0], [0, PuiseuxElement.t_power(one)]])),
        RepArrow("u", "w", trop=TropMatrix([[0, INF], [INF, half]])),
        RepArrow("u", "w", trop=TropMatrix([[0, INF], [INF, one]])),
    ]
    rep = QuiverRepresentation(2, ["u", "w"], arrows, {"u": 1, "w": 1})
    got = assert_same_all_relations(rep)
    assert [rel["where"] for rel in got] == [0, 1, 2, 3]
