"""The exchange axiom of one full-support matroid against the walk it replaced.

On a support that is a matroid, a table is a valuated matroid exactly when
every three-term relation attains its minimum twice (Dress-Wenzel, "Valuated
matroids", 1992; Speyer, "Tropical linear spaces", 2008).  A full support is
the uniform matroid, so matroid._three_term_failure decides the axiom of one
matroid with full support; every other table still goes through the relation
walk or the exchange loop.  ``_exchange_violation`` below is the previous
decision, kept verbatim; the relation walk it calls is the library's, reached
through ``_unique_minimum``, which reads the matrix's finite entries as the
library's walk now takes them.  The library must return the same verdict and
the same certificate on every table, and the fact itself is checked
exhaustively on small full supports with values 0 and 1.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from tropquiver import TropMatrix, ValuatedMatroid, is_valuated_matroid, pluecker_valuations
from tropquiver import matroid
from tropquiver.matroid import (
    _int_tables,
    _members,
    _unrepeated,
    check_walk,
    subset_count,
)
from tropquiver.puiseux import rank_via_minors

from helpers import rand_field_matrix
from test_exchange_reference import rand_table, reference_violation


def _unique_minimum(a, mu, nu, grouped, pick=None):
    """The library's relation walk on the finite entries of the matrix a."""
    return matroid._unique_minimum(a._finite_entries(), mu, nu, grouped, pick)


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

    The pairs of finite bases are counted against WALK_CAP first.  When
    the relation pairs, C(n, r - 1) * C(n, s + 1), are fewer, the relation
    walk decides, and only a rejection runs the exchange loop, for the
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
    if by_relations and _unique_minimum(TropMatrix.identity(mu.n), mu, nu, grouped=False,
                                        pick=_unrepeated if mu is nu else None) is None:
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


def _full(m):
    return len(m._at) == subset_count(m.n, m.r)


def _lowered(rng, m):
    """m with one random basis lowered by 1/2, 1 or 1000."""
    table = {b: v.value for b, v in m.table().items()}
    b = rng.choice(sorted(table))
    table[b] -= rng.choice([Fraction(1, 2), 1, 1000])
    return ValuatedMatroid(m.n, m.r, table)


def _ints(rng, n, r, low=-2, high=2):
    """Random int values on every r-subset of [n]."""
    return ValuatedMatroid(n, r, {b: rng.randint(low, high)
                                  for b in combinations(range(1, n + 1), r)})


def _realization(rng, n, r, full):
    """The valuated matroid of a random r x n matrix of rank r whose support
    is full or not, or None if twenty draws give none."""
    for _ in range(20):
        u = rand_field_matrix(rng, r, n, zero_prob=0 if full else 0.3)
        if rank_via_minors(u) == r and _full(m := pluecker_valuations(u)) == full:
            return m
    return None


def tables(rng):
    """(kind, table): full supports (realizable, lowered, random ints), the
    ranks 0, 1, n - 1 and n, which have no three-term relation, realizable
    tables with a support that is a matroid but not full (and the same
    lowered), and supports that are no matroid."""
    out = []
    for _ in range(120):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        out.append(("full ints", _ints(rng, n, r)))
        out.append(("full ints", _ints(rng, n, r, 0, 1)))
        m = _realization(rng, n, r, full=True)
        if m is not None:
            out += [("full realizable", m), ("full lowered", _lowered(rng, m))]
        m = _realization(rng, n, r, full=False)
        if m is not None:
            out += [("matroid support", m), ("matroid support", _lowered(rng, m))]
        out.append(("partial support", rand_table(rng, n, r)))
    for n in range(1, 8):
        for r in {0, 1, n - 1, n}:
            out += [("corner rank", _ints(rng, n, r)) for _ in range(3)]
    out.append(("partial support", ValuatedMatroid(6, 3, {(1, 2, 3): 0, (4, 5, 6): 0})))
    return out


def test_library_matches_the_previous_walk():
    rng = random.Random(20261021)
    seen = Counter()
    for kind, m in tables(rng):
        witness = _exchange_violation(m, m)
        assert is_valuated_matroid(m) == (witness is None, witness), (kind, m)
        if kind == "corner rank":
            assert witness is None and not matroid._three_term_failure(m), m
        seen[kind, witness is None] += 1
    for kind in ("full ints", "full lowered", "matroid support", "partial support"):
        assert seen[kind, True] >= 5 and seen[kind, False] >= 5, seen
    assert seen["full realizable", True] >= 50 and not seen["full realizable", False], seen
    assert seen["corner rank", True] >= 60, seen


def test_three_terms_decide_every_small_full_support():
    # every table on every full support with n <= 5, values 0 and 1: the
    # kernel fails exactly when the brute-force exchange check does
    seen = Counter()
    for n in range(1, 6):
        for r in range(n + 1):
            subsets = list(combinations(range(1, n + 1), r))
            for values in product((0, 1), repeat=len(subsets)):
                m = ValuatedMatroid(n, r, dict(zip(subsets, values)))
                expected = reference_violation(m, m)
                assert matroid._three_term_failure(m) == (not expected[0]), m
                assert is_valuated_matroid(m) == expected, m
                seen[expected[0]] += 1
    assert seen[True] > 0 and seen[False] > 0, seen
