"""The single-matroid relation walks against the code they replaced.

A relation (I, J) of one matroid under the identity has terms
m(I + b) + m(J - b) for b in B = J - I.  It holds on every table when
A = I - J is empty, and for A = {a} it is one of four copies of a three-term
relation.  matroid._unrepeated keeps the first copy and the pairs with
|A| >= 2, and both the exchange walk of is_valuated_matroid and the vertex
relations of quiver._kept_relations now walk only those.
``_subset_vectors`` and ``_unique_minimum`` below are the previous kernel,
and ``_relations``, ``_arrow_relations`` and
``_kept_relations`` the previous generator, kept verbatim; the other helpers
they call are unchanged and come from the library.  The kernel with the pick
must find the same first hit (the first copy of a relation in walk order is
the one kept), and the generator must yield the same tuples in the same
order.
"""

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from tropquiver import (
    FieldMatrix,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    ValuatedMatroid,
    grassmann_pluecker_relations,
    is_valuated_matroid,
    pluecker_valuations,
)
from tropquiver import matroid, quiver
from tropquiver.matroid import (
    _int_tables,
    _mask,
    _unrepeated,
    _trop_vector,
    subset_count,
)
from tropquiver.quiver import (
    _add,
    _arrow_pairs,
    _exp_scale,
    _identity_columns,
    _proportional,
    _scaled_columns,
    _trop_projective_key,
    check_walk,
)

from helpers import rand_arrow, rand_realization, rand_scaled_arrow
from test_exchange_reference import _exchange_violation, _sparse, rand_table


def _subset_vectors(n, size, at, members, grouped):
    """(S, vector) for each size-subset S of [n] in combinations order,
    the vector as the dict of its finite entries, from a matroid given as
    {bitmask: int}: with members, the circuit C_i = m(S - i) at i in S
    (size r + 1); without, the cocircuit c_j = m(S + j) at j outside S
    (size r - 1).  Empty vectors are dropped.  grouped keeps one vector per
    projective class, the first S's, sorted by raw entries with infinity
    last: the order of circuits() and cocircuits()."""
    ground = range(1, n + 1)
    out = []
    for s in combinations(ground, size) if size >= 0 else ():
        mask = _mask(s)
        vec = {e: at[mask ^ 1 << e] for e in ground
               if (mask >> e & 1) == members and mask ^ 1 << e in at}
        if vec:
            out.append((s, vec))
    if grouped:
        classes = {}  # projective class -> its first (S, vector)
        for s, vec in out:
            low = min(vec.values())
            classes.setdefault(tuple((e, x - low) for e, x in vec.items()), (s, vec))
        out = sorted(classes.values(), key=lambda item: tuple(
            (0, item[1][e]) if e in item[1] else (1, 0) for e in ground))
    return out


def _unique_minimum(a, mu: ValuatedMatroid, nu: ValuatedMatroid, grouped):
    """The first pair, in walk order, of a cocircuit-side vector c_I of mu
    and a circuit-side vector C_J of nu whose terms val(A_ij) + c_j + C_i
    have a finite minimum attained once, as ((I, c_I), (J, C_J)) with
    TropVectors, or None.  A is a TropMatrix or a FieldMatrix, read through
    the finite entries of val(A) that either gives.

    Without grouped these are the terms of the quiver Pluecker relation
    (I, J) of an arrow between two distinct vertices: every term counts,
    and every I and J is walked in combinations order.  With grouped each
    target index i counts once, and the vectors are those of cocircuits()
    and circuits(), in their order: the test of the image val(A) (.) c*
    against nu's circuits.  For each I the terms are grouped by i into
    (minimum over j, how many j attain it); each J then combines the groups
    of its entries in O(|J|).
    """
    if not subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1):
        return None  # rank(mu) = 0 or rank(nu) = n: no pair, so no vector is built
    entries = a._finite_entries()
    scale, (mu_at, nu_at) = _int_tables((mu, nu), [x for _, _, x in entries])
    columns = {}
    for i, j, x in entries:
        columns.setdefault(j, []).append((i, x.numerator * (scale // x.denominator)))
    targets = _subset_vectors(nu.n, nu.r + 1, nu_at, members=True, grouped=grouped)
    for i_set, c in _subset_vectors(mu.n, mu.r - 1, mu_at, members=False, grouped=grouped):
        best = {}  # i -> [min over j of A_ij + c_j, how many j attain it]
        for j, x in c.items():
            for i, a_ij in columns.get(j, ()):
                t = a_ij + x
                b = best.get(i)
                if b is None or t < b[0]:
                    best[i] = [t, 1]
                elif t == b[0] and not grouped:
                    b[1] += 1
        if not best:
            continue
        for j_set, circ in targets:
            low, count = None, 0
            for i, y in circ.items():
                b = best.get(i)
                if b is not None:
                    t = b[0] + y
                    if low is None or t < low:
                        low, count = t, b[1]
                    elif t == low:
                        count += b[1]
            if count == 1:
                return ((i_set, _trop_vector(mu.n, c, scale)),
                        (j_set, _trop_vector(nu.n, circ, scale)))
    return None


def _relations(n, r, s, src, dst, columns, merge):
    """Pluecker relations, over ints, of a matrix M from a rank-r source to
    a rank-s target, given by its columns as _scaled_columns returns them.
    Yields (I, J, terms) for every (r-1)-subset I and (s+1)-subset J with
    terms sign(j;I,J) * M[i][j] * p_{I+j} * q_{J-i}: terms is a tuple of
    (monomial, coefficient) sorted by monomial, the coefficients of one
    monomial merged by merge (classically _add, whose None marks a
    cancelled monomial, dropped here; tropically min).  Relations without
    terms are skipped."""
    ground = range(1, n + 1)
    for i_set in combinations(ground, r - 1):
        # per column j outside I: p_{I+j}, and the flips of sign(j;I,J)
        # counted inside I, plus |J| (the flips in J are |J| minus the
        # members of J up to j)
        lefts = [(j, (src, tuple(sorted(i_set + (j,)))), sum(i > j for i in i_set) + s + 1,
                  entries) for j, entries in columns if j not in i_set]
        for j_set in combinations(ground, s + 1):
            rights = {i: (dst, j_set[:k] + j_set[k + 1 :]) for k, i in enumerate(j_set)}
            acc = {}
            for j, left, flips, entries in lefts:
                odd = (flips - bisect_right(j_set, j)) & 1
                for i, entry in entries:
                    right = rights.get(i)
                    if right is not None:
                        mono = (right, left) if right < left else (left, right)
                        prev = acc.get(mono)
                        acc[mono] = entry[odd] if prev is None else merge(prev, entry[odd])
            terms = tuple(sorted(t for t in acc.items() if t[1] is not None))
            if terms:
                yield i_set, j_set, terms


def _arrow_relations(rep: QuiverRepresentation, a_idx, exp_scale):
    """The int relations of one arrow (_relations, exponents times
    exp_scale) and the arrow's coefficient scale, None for the tropical
    layer."""
    arrow = rep.arrows[a_idx]
    columns, coeff_scale = _scaled_columns(arrow, exp_scale)
    relations = _relations(rep.n, rep.dim[arrow.src], rep.dim[arrow.dst], arrow.src,
                           arrow.dst, columns, min if coeff_scale is None else _add)
    return relations, coeff_scale


def _kept_relations(rep: QuiverRepresentation):
    """The defining relations of the quiver Dressian over ints, as
    all_relations keeps them and in its order: yields (kind, where, I, J,
    terms, exp_scale, coeff_scale), terms as _relations yields them, with
    exponents times exp_scale and coefficients times coeff_scale (None for
    the tropical layer).  The cap is checked at the first next()."""
    n, dim = rep.n, rep.dim
    pairs = sum(comb(n, dim[v] - 1) * comb(n, dim[v] + 1) for v in rep.vertices)
    check_walk("relation generation", pairs + _arrow_pairs(rep), "(I, J) pairs")
    exp_scale = _exp_scale(rep.arrows)
    sources = [("vertex", v, _relations(n, dim[v], dim[v], v, v, _identity_columns(n), _add), 1)
               for v in rep.vertices]
    sources += [("arrow", a_idx) + _arrow_relations(rep, a_idx, exp_scale)
                for a_idx in range(len(rep.arrows))]
    seen_classical = {}  # monomial support -> classical relations kept
    seen_tropical = set()
    for kind, where, relations, coeff_scale in sources:
        for i_set, j_set, terms in relations:
            if coeff_scale is not None:
                bucket = seen_classical.setdefault(tuple(m for m, _ in terms), [])
                if any(_proportional(prev, terms) for prev in bucket):
                    continue
                bucket.append(terms)
            else:
                key = _trop_projective_key(terms)
                if key in seen_tropical:
                    continue
                seen_tropical.add(key)
            yield kind, where, i_set, j_set, terms, exp_scale, coeff_scale



def _lowered(m):
    """m with its first basis B that misses two elements of another basis
    lowered by 1000: the exchange from (B, J) never leads back to B, so the
    table fails the axiom; None if no basis qualifies."""
    table = {b: v.value for b, v in m.table().items()}
    for b in sorted(table):
        if any(len(set(j) - set(b)) >= 2 for j in table):
            table[b] -= 1000
            return ValuatedMatroid(m.n, m.r, table)
    return None


def single_matroids(rng):
    """Tables on n = 2..7: random values on partial supports (mostly no
    matroid) of every rank 0..n, and for ranks 2..n-2, where relations
    have three or more terms, realizable ones, the same lowered, and a
    handful of bases."""
    out = [rand_table(rng, n, r) for n in range(2, 8) for r in range(n + 1) for _ in range(2)]
    for _ in range(60):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        out.append(rand_table(rng, n, r))
        out.append(_sparse(rng, n, r))
        try:
            _, m = rand_realization(rng, r, n)
        except RuntimeError:
            continue
        out.append(m)
        low = _lowered(m)
        if low is not None:
            out.append(low)
    return out


def test_walk_with_pick_finds_the_same_first_hit():
    rng = random.Random(20261020)
    seen = Counter()
    for m in single_matroids(rng):
        identity = TropMatrix.identity(m.n)
        old = _unique_minimum(identity, m, m, grouped=False)
        assert matroid._unique_minimum(identity._finite_entries(), m, m, grouped=False,
                                       pick=_unrepeated) == old, m
        witness = _exchange_violation(m, m)
        assert is_valuated_matroid(m) == (witness is None, witness), m
        seen[m.r] += 1
        seen["accepted" if old is None else "rejected"] += 1
    assert seen["accepted"] >= 40 and seen["rejected"] >= 40, seen
    assert all(seen[r] for r in range(8)), seen


def rand_quivers(rng):
    """Quivers of one to three vertices with one to three arrows: identity
    loops (field and tropical), random loops, field and tropical arrows
    between vertices, and identity arrows between vertices."""
    out = []
    for k in range(150):
        n = rng.randint(1, 5)
        vertices = ["a", "b", "c"][: rng.randint(1, 3)]
        dim = {v: rng.randint(1, n) for v in vertices}
        arrows = []
        for _ in range(rng.randint(1, 3)):
            src, dst = rng.choice(vertices), rng.choice(vertices)
            kind = rng.randrange(4)
            if kind == 0:
                arrows.append(RepArrow(src, dst, field=FieldMatrix.identity(n)))
            elif kind == 1:
                arrows.append(RepArrow(src, dst, trop=TropMatrix.identity(n)))
            else:
                arrows.append((rand_scaled_arrow if kind == 2 else rand_arrow)(rng, n, src, dst))
        out.append(QuiverRepresentation(n, vertices, arrows, dim))
    return out


def test_kept_relations_match_reference():
    rng = random.Random(20261021)
    seen = Counter()
    for rep in rand_quivers(rng):
        got = list(quiver._kept_relations(rep))
        assert got == list(_kept_relations(rep)), rep.arrows
        for a in rep.arrows:
            identity = a.field is not None and a.field == FieldMatrix.identity(rep.n)
            seen["identity loop" if identity and a.src == a.dst else
                 "loop" if a.src == a.dst else "tropical" if a.field is None else "field"] += 1
        seen["vertices", len(rep.vertices)] += 1
    assert all(seen[k] >= 10 for k in ("identity loop", "loop", "tropical", "field")), seen
    assert all(seen["vertices", k] for k in (1, 2, 3)), seen


def _walked(n, r):
    """(I, J) pairs of a rank-r matroid on [n] that _unrepeated keeps."""
    j_items = [(j_set, _mask(j_set)) for j_set in combinations(range(1, n + 1), r + 1)]
    return [(i_set, j_set) for i_set in combinations(range(1, n + 1), r - 1)
            for j_set, _ in _unrepeated(_mask(i_set), j_items)]


def test_unrepeated_is_the_rule_on_sets():
    """Walk (I, J) exactly when I - J has two elements or more, or one
    element below every element of J - I, in walk order; on n = 8, ranks
    3 and 5, 700 of 1960 pairs are walked."""
    for n in range(1, 8):
        for r in range(1, n):
            expected = []
            for i_set in combinations(range(1, n + 1), r - 1):
                for j_set in combinations(range(1, n + 1), r + 1):
                    a, b = set(i_set) - set(j_set), set(j_set) - set(i_set)
                    if len(a) >= 2 or len(a) == 1 and min(a) < min(b):
                        expected.append((i_set, j_set))
            assert _walked(n, r) == expected, (n, r)
    for r in (3, 5):
        assert comb(8, r - 1) * comb(8, r + 1) == 1960 and len(_walked(8, r)) == 700


def test_three_term_copies_agree_and_supports_count_the_vertex_relations():
    """In grassmann_pluecker_relations each three-term relation comes as
    four copies, one per choice of a in A + B: equal tropical terms, and
    classical terms equal up to sign.  Relations with |I - J| >= 2 have
    monomials of their own, so the vertex relations _kept_relations yields
    are as many as the distinct monomial supports."""
    for n in range(2, 8):
        for r in range(1, n + 1):
            copies = {}
            supports = set()
            for i_set, j_set, classical, tropical in grassmann_pluecker_relations(n, r, "v"):
                support = tuple(m for m, _ in classical)
                supports.add(support)
                a = set(i_set) - set(j_set)
                if len(a) == 1:
                    key = (set(i_set) & set(j_set), a | set(j_set) - set(i_set))
                    copies.setdefault(repr(sorted(map(sorted, key))), []).append(
                        (support, classical, tropical))
            for group in copies.values():
                assert len(group) == 4
                support, classical, tropical = group[0]
                for other_support, other_classical, other_tropical in group[1:]:
                    assert other_support == support
                    assert other_tropical == tropical
                    coefficients = tuple(c for _, c in other_classical)
                    assert coefficients in {tuple(c for _, c in classical),
                                            tuple(-c for _, c in classical)}
            rep = QuiverRepresentation(n, ["v"], [], {"v": r})
            kept = list(quiver._kept_relations(rep))
            assert len(kept) == len(supports), (n, r)
