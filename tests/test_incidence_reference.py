"""Identity arrows and quotients of full-support matroids against the walks
they replaced.

Fix an (r - 1)-subset I.  The incidence relations (I, J) of mu and nu under
the identity all hold exactly when the cocircuit mu(I + .) lies in
trop(nu); when both supports are full and nu is a valuated matroid, that is
the initial-matroid test of nu / I at that point (Speyer, "Tropical linear
spaces", 2008), which matroid._incidence_failure makes for each I.  The
library uses it in quotient_check (after the three-term check of nu) and on
identity arrows of both membership routes (after the vertex stage);
a rejection still runs the previous walk, which names the certificate.

``_exchange_violation``, ``_relation_failure`` and ``_containment_failure``
below are the previous code, kept verbatim.  The kernel must agree with the
relation walk they run (matroid._unique_minimum under the identity,
unchanged) wherever its preconditions hold, and every public entry point
must return the kept code's verdict and certificate.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    RepArrow,
    QuiverRepresentation,
    TropMatrix,
    ValuatedMatroid,
    flag_mode_check,
    pluecker_valuations,
    qdr_cross_check,
    qdr_membership,
    qdr_membership_via_containment,
    quotient_check,
    valuation,
)
from tropquiver import matroid, quiver
from tropquiver.errors import NotARealizationError
from tropquiver.matroid import (
    _identity_entries,
    _int_tables,
    _members,
    _three_term_failure,
    _unique_minimum,
    _unrepeated,
    check_walk,
    containment_check,
    subset_count,
)
from tropquiver.puiseux import SIZE_CAP, rank_via_minors
from tropquiver.quiver import _arrow_pairs, _arrow_relations, _exp_scale, _fractions

from helpers import rand_field_matrix, rand_realization
from test_three_term_reference import _full, _lowered


def _exchange_violation(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """The lexicographically least (I, J, i) with i in I - J and
    mu(I) + nu(J) < mu(I - i + j) + nu(J - j + i) for every j in J - I, or
    None.

    Violations and failing incidence relations are in bijection.  Take
    (I, J, i) with i in I - J and mu(I) + nu(J) finite.  Relation
    (I - i, J + i) ranges over j in (J - I) + {i}, and its term at j = i
    is mu(I) + nu(J); its minimum is attained twice exactly when some j in
    J - I has mu(I - i + j) + nu(J - j + i) <= mu(I) + nu(J), the exchange
    condition.  Conversely a unique finite minimum of relation (I', J') at
    j0 is the violating triple (I' + j0, J' - j0, j0).  So the relation
    walk of the identity arrow (_unique_minimum, not grouped) decides on
    any tables; the two walks differ only in order.  When mu is nu it
    walks only the pairs _unrepeated keeps (700 of 1960 at n = 8, rank 3
    or 5); the others hold on every table or repeat a pair walked before.
    When mu is nu and its support is full, the uniform matroid, the
    three-term relations alone decide (_three_term_failure: 280
    comparisons at n = 8, rank 3 or 5), and no vector is built.

    The pairs of finite bases are counted against WALK_CAP first.  When
    the relation pairs, C(n, r - 1) * C(n, s + 1), are fewer, as they are
    on every full support (C(n, r)^2 > C(n, r - 1) * C(n, r + 1)), the
    relations decide, and only a rejection runs the exchange loop, for the
    certificate; a rejection without a violating triple is a fault of the
    program and raises RuntimeError.  Otherwise the exchange loop decides.
    It walks only pairs of finite bases (an infinite left-hand side never
    violates), in sorted order, which is the order of combinations.

    Each of the two subset counts is at most their product unless one is 0
    (rank(mu) = 0 or rank(nu) = n), when there is no relation and no triple
    and the relation walk returns at once; so the pairs of bases bound
    every subset the relation walk builds.  The choice weighs a relation
    pair and a pair of bases alike, skipped pairs counted too, which is a
    balance, not a cost: on an accepting table a relation pair is the
    cheaper, but a rejection runs both walks, so at equal counts the
    relation walk gains on an accept about what it loses on a rejection.
    """
    base_pairs = len(mu._at) * len(nu._at)
    check_walk("exchange check", base_pairs, "pairs of bases")
    by_relations = subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1) < base_pairs
    if by_relations:
        if mu is nu and len(mu._at) == subset_count(mu.n, mu.r):
            failing = _three_term_failure(mu)
        else:
            identity = [(e, e, 0) for e in range(1, mu.n + 1)]
            failing = _unique_minimum(identity, mu, nu, grouped=False,
                                      pick=_unrepeated if mu is nu else None) is not None
        if not failing:
            return None
    _, (mu_at, nu_at) = _int_tables((mu, nu))
    left, right = (sorted((_members(b, m.n), b, x) for b, x in at.items())
                   for m, at in ((mu, mu_at), (nu, nu_at)))
    for i_set, i_mask, x in left:
        for j_set, j_mask, y in right:
            lhs = x + y
            only_j = [1 << j for j in j_set if not i_mask >> j & 1]
            for i in i_set:
                bit_i = 1 << i
                if j_mask & bit_i:
                    continue
                for bit_j in only_j:
                    a = mu_at.get(i_mask ^ bit_i | bit_j)
                    if a is not None:
                        b = nu_at.get(j_mask ^ bit_j | bit_i)
                        if b is not None and a + b <= lhs:
                            break
                else:
                    return i_set, j_set, i
    if by_relations:
        raise RuntimeError("a relation fails but no exchange triple is violated")
    return None


def _relation_failure(rep: QuiverRepresentation, mus):
    """The relation route's arrow stage: the first ("relation", arrow, I, J)
    whose tropical quiver Pluecker relation has a unique finite minimum, or
    None.  Arrows between distinct vertices go through the integer walk,
    counting every term; loops through the generator's merged int terms."""
    check_walk("membership by relations", _arrow_pairs(rep), "(I, J) pairs")
    for a_idx, arrow in enumerate(rep.arrows):
        if arrow.src != arrow.dst:
            hit = _unique_minimum((arrow.trop or arrow.field)._finite_entries(), mus[arrow.src],
                                  mus[arrow.dst], grouped=False)
            if hit is not None:
                return "relation", a_idx, hit[0][0], hit[1][0]
            continue
        exp_scale = _exp_scale([arrow])
        relations, coeff_scale = _arrow_relations(rep, a_idx, exp_scale)
        values = _fractions(mus[arrow.src])
        for i_set, j_set, terms in relations:
            finite = [Fraction(c if coeff_scale is None else c[0][0], exp_scale)
                      + values[left] + values[right]
                      for ((_, left), (_, right)), c in terms
                      if left in values and right in values]
            if finite and finite.count(min(finite)) == 1:
                return "relation", a_idx, i_set, j_set
    return None


def _containment_failure(rep: QuiverRepresentation, mus):
    """The containment route's arrow stage: the first
    ("containment", arrow, (cocircuit, circuit)), or None."""
    check_walk("membership by containment", _arrow_pairs(rep), "(cocircuit, circuit) pairs")
    for a_idx, arrow in enumerate(rep.arrows):
        ok, cert = containment_check(arrow.trop or arrow.field, mus[arrow.src], mus[arrow.dst])
        if not ok:
            return "containment", a_idx, cert
    return None


def _walk_fails(mu, nu):
    """Does a relation of mu and nu under the identity have a unique
    minimum, by the relation walk?"""
    return _unique_minimum(_identity_entries(mu.n), mu, nu, grouped=False) is not None


def _kept_quotient(mu, nu):
    witness = _exchange_violation(mu, nu)
    return witness is None, witness


def _kept_flag(mus):
    for k, (mu, nu) in enumerate(zip(mus, mus[1:])):
        ok, cert = _kept_quotient(mu, nu)
        if not ok:
            return False, (k, cert)
    return True, None


def _kept_routes(rep, mus):
    failed = quiver._matroid_failure(rep, mus)
    relation = failed or _relation_failure(rep, mus)
    containment = failed or _containment_failure(rep, mus)
    return (relation is None, relation), (containment is None, containment)


def _tables(n, r, values):
    """Every table on the full rank-r support of [n] with the given values."""
    subsets = list(combinations(range(1, n + 1), r))
    return [ValuatedMatroid(n, r, dict(zip(subsets, v)))
            for v in product(values, repeat=len(subsets))]


def _up_to_relabeling(tables):
    """One table of each orbit under the permutations of the ground set."""
    n, r = tables[0].n, tables[0].r
    subsets = list(combinations(range(1, n + 1), r))
    index = {b: k for k, b in enumerate(subsets)}
    moves = [[index[tuple(sorted(p[e - 1] for e in b))] for b in subsets]
             for p in permutations(range(1, n + 1))]
    seen, out = set(), []
    for m in tables:
        values = [m.value(b) for b in subsets]
        if tuple(values) not in seen:
            out.append(m)
            seen.update(tuple(values[k] for k in move) for move in moves)
    return out


def test_kernel_matches_the_walk_on_small_full_supports():
    # every full-support mu against every full-support valuated matroid nu
    # of rank at least rank(mu), with values 0 and 1, and 2 too where a
    # table at n <= 4 has at most four subsets; at n >= 4, mu up to
    # relabeling (both tests commute with permuting the ground set)
    seen = Counter()
    for n in range(1, 6):
        tables = {r: _tables(n, r, (0, 1, 2) if n < 5 and subset_count(n, r) <= 4 else (0, 1))
                  for r in range(n + 1)}
        for r, s in combinations(range(n + 2), 2):
            s -= 1  # every 0 <= r <= s <= n
            mus = _up_to_relabeling(tables[r]) if n >= 4 else tables[r]
            for nu in tables[s]:
                if _three_term_failure(nu):
                    continue
                for mu in mus:
                    fails = matroid._incidence_failure(mu, nu)
                    assert fails == _walk_fails(mu, nu), (mu, nu)
                    seen[n, fails, _three_term_failure(mu)] += 1
    for n in (4, 5):  # rejections, and accepts where mu is no valuated matroid
        assert min(seen[n, fails, bad] for fails in (True, False) for bad in (True, False)) > 0, seen


def test_kernel_needs_nu_to_be_a_valuated_matroid():
    # nu fails the three-term relation of 1, 2, 3, 4 (14 + 23 = 0 is below
    # 12 + 34 = 13 + 24 = 1); the relation walk finds the relation of
    # I = {} and J = {2, 3, 4} (terms 1, 1, 0), which the kernel misses
    mu = ValuatedMatroid(4, 1, {(e,): 0 for e in range(1, 5)})
    nu = ValuatedMatroid(4, 2, {(1, 2): 0, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 1, (3, 4): 1})
    assert _three_term_failure(nu) and _walk_fails(mu, nu)
    assert not matroid._incidence_failure(mu, nu)
    assert quotient_check(mu, nu) == _kept_quotient(mu, nu)
    assert not quotient_check(mu, nu)[0]


def _nested(rng, n, ranks):
    """Valuated matroids of the first r rows, for each r in ranks, of a
    random matrix of full row rank without zero entries, or None."""
    while rank_via_minors(u := rand_field_matrix(rng, ranks[-1], n, zero_prob=0)) < ranks[-1]:
        pass
    try:
        return [pluecker_valuations(FieldMatrix(u.rows[:r])) for r in ranks]
    except NotARealizationError:  # some leading rows are not of full rank
        return None


def pairs(rng):
    """(kind, mu, nu) at n = 6..8 with s - r in {1, 2, 3}: nested row spans
    (a quotient), independent realizations, and either of a nested pair
    with one basis lowered."""
    out = []
    for k in range(90):
        n = 6 + k % 3
        r = rng.randint(1, n - 2)
        s = min(r + rng.randint(1, 3), n - 1, SIZE_CAP[0])
        nested = _nested(rng, n, (r, s))
        if nested is None:
            continue
        mu, nu = nested
        other = _nested(rng, n, (r,))
        out += [("nested", mu, nu), ("lowered mu", _lowered(rng, mu), nu),
                ("lowered nu", mu, _lowered(rng, nu))]
        out += [("independent", other[0], nu)] if other else []
    return out


def test_random_pairs_match_the_kept_code():
    rng = random.Random(20261024)
    seen = Counter()
    for kind, mu, nu in pairs(rng):
        expected = _kept_quotient(mu, nu)
        assert quotient_check(mu, nu) == expected, (kind, mu, nu)
        if _full(mu) and _full(nu) and not _three_term_failure(nu):
            assert matroid._incidence_failure(mu, nu) == (not expected[0]), (kind, mu, nu)
            seen[kind, expected[0]] += 1
    assert seen["nested", True] >= 50 and not seen["nested", False], seen
    assert seen["independent", False] >= 50 and seen["lowered mu", False] >= 50, seen
    assert seen["lowered nu", False] >= 10, seen


def _chain(n, ranks, mus, layer):
    """The chain quiver of identity arrows on the given layer, or of the
    tropical diagonal (0, 1, 0, 1, ...), which is no identity."""
    vertices = ["v%d" % (k + 1) for k in range(len(ranks))]
    matrix = {"field": FieldMatrix.identity(n), "trop": TropMatrix.identity(n),
              "diagonal": TropMatrix([[i % 2 if i == j else None for j in range(n)]
                                      for i in range(n)])}[layer]
    arrows = [RepArrow(a, b, **{"field" if layer == "field" else "trop": matrix})
              for a, b in zip(vertices, vertices[1:])]
    return (QuiverRepresentation(n, vertices, arrows, dict(zip(vertices, ranks))),
            dict(zip(vertices, mus)))


def chains(rng):
    """Flags of nested row spans and the same with a member replaced by an
    independent realization or lowered, at the benchmark's shapes and with
    ranks decreasing along the arrows (the kernel does not apply)."""
    out = []
    for n, ranks in [(6, (2, 4)), (7, (3, 5)), (7, (2, 4, 5)), (8, (3, 5)), (6, (1, 2, 5))] * 3:
        mus = _nested(rng, n, ranks)
        if mus is None:
            continue
        k = rng.randrange(len(mus))
        other = list(mus)
        other[k] = rand_realization(rng, ranks[k], n)[1]
        low = list(mus)
        low[k] = _lowered(rng, mus[k])
        for flag in (mus, other, low):
            out += [(n, ranks, flag), (n, ranks[::-1], flag[::-1])]
    return out


def test_routes_match_the_kept_code_on_identity_chains():
    rng = random.Random(20261025)
    seen = Counter()
    for n, ranks, mus in chains(rng):
        for layer in ("field", "trop", "diagonal"):
            rep, tup = _chain(n, ranks, mus, layer)
            relation, containment = _kept_routes(rep, tup)
            assert qdr_membership(rep, tup) == relation, (rep, mus)
            assert qdr_membership_via_containment(rep, tup) == containment, (rep, mus)
            assert qdr_cross_check(rep, tup) == (relation, containment), (rep, mus)
            seen[layer, relation[0], relation[1] and relation[1][0]] += 1
        if ranks[0] < ranks[-1]:
            assert flag_mode_check(mus) == _kept_flag(mus), mus
    for layer in ("field", "trop"):
        assert seen[layer, True, None] >= 10 and seen[layer, False, "relation"] >= 10, seen
        assert seen[layer, False, "matroid"] >= 10, seen
    assert seen["diagonal", False, "relation"] >= 10, seen


def test_identity_test_reads_the_stored_values():
    """_incidence_holds asks either layer whether val(A) is the identity,
    as the comparison of its finite entries with the identity's did: on the
    identity, on matrices one entry away from it, and on random ones."""
    rng = random.Random(20261026)
    zero, one, t = PuiseuxElement(), PuiseuxElement.const(1), PuiseuxElement.t_power(1)
    t_inverse = PuiseuxElement.t_power(-1)
    matrices = []
    for n in (1, 2, 4):
        for k in range(n):
            for entry in (one, PuiseuxElement.const(Fraction(-3, 2)), one + t, t, one + t_inverse,
                          zero):
                rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
                rows[k][k] = entry
                matrices.append(FieldMatrix(rows))
                if n > 1:
                    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
                    rows[k][n - 1 - k if n - 1 - k != k else 0] = entry
                    matrices.append(FieldMatrix(rows))
        matrices += [rand_field_matrix(rng, n, n, zero_prob=rng.random()) for _ in range(20)]
    seen = Counter()
    for m in matrices:
        trop = TropMatrix([[valuation(x) for x in row] for row in m.rows])
        expected = m._finite_entries() == _identity_entries(m.n_rows)
        assert m._val_is_identity() == trop._val_is_identity() == expected, m
        seen[expected] += 1
    assert seen[True] >= 20 and seen[False] >= 50, seen
    # a rectangular matrix is no identity, whatever its entries
    for m in (FieldMatrix([[one, zero, zero], [zero, one, zero]]), FieldMatrix([[one], [zero]])):
        assert not m._val_is_identity()
        assert not TropMatrix([[valuation(x) for x in row] for row in m.rows])._val_is_identity()
