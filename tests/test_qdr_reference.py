"""The relation route of ``qdr_membership`` against the route it replaced:
the flat term walk on arrows between two distinct vertices, and on loops
the evaluation of the generator's merged int terms.

``reference_qdr_membership`` is the original relation route, kept
verbatim: it builds every tropical quiver Pluecker relation with
``quiver_pluecker_relations`` and evaluates it with ``trop_poly_vanishes``
under ``_assignment``, which moved here from ``tropquiver.quiver`` verbatim.
The library must return the identical (bool, certificate) pair: the same
verdict, and on a rejection the same first failing (arrow, I, J) in the
generator's order.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    TropPolynomial,
    TropValue,
    ValuatedMatroid,
    identity_chain_representation,
    is_valuated_matroid,
    pluecker_valuations,
    qdr_cross_check,
    qdr_membership,
    quiver_pluecker_relations,
    trop_poly_vanishes,
)
from tropquiver.errors import NotARealizationError
from tropquiver.puiseux import ZERO, rank_via_minors
from tropquiver import quiver
from tropquiver.quiver import _validate_tuple
from tropquiver.trop import trop_sum

from helpers import rand_arrow, rand_realization, rand_scaled_arrow, rand_trop_value
from test_minor_reference import rational_matrix


def _assignment(mus, poly: TropPolynomial):
    assign = {}
    for _, mono in poly.terms:
        for vertex, subset in mono:
            assign[(vertex, subset)] = mus[vertex].value(subset)
    return assign


def reference_qdr_membership(rep, mus):
    _validate_tuple(rep, mus)
    for v in rep.vertices:
        ok, witness = is_valuated_matroid(mus[v])
        if not ok:
            return False, ("matroid", v, witness)
    for a_idx in range(len(rep.arrows)):
        for i_set, j_set, _, tropical in quiver_pluecker_relations(rep, a_idx):
            if not trop_poly_vanishes(tropical, _assignment(mus, tropical)):
                return False, ("relation", a_idx, i_set, j_set)
    return True, None


def stiefel_matroid(rng, r, n, inf_prob):
    """The tropical Pluecker vector of a random r x n tropical matrix, a
    valuated matroid whenever some maximal tropical minor is finite (then
    returned), with infinite values where the matrix's INF pattern forces
    them; None if every minor is infinite."""
    rows = [[rand_trop_value(rng, inf_prob) for _ in range(n)] for _ in range(r)]
    table = {}
    for cols in combinations(range(1, n + 1), r):
        table[cols] = trop_sum(
            sum((rows[k][c - 1] for k, c in enumerate(perm)), TropValue(0))
            for perm in permutations(cols)
        )
    if all(v.is_inf for v in table.values()):
        return None
    return ValuatedMatroid(n, r, table)


def rand_matroid(rng, r, n):
    """A tropical (Stiefel) or a Puiseux-realized matroid of rank r on [n]."""
    if rng.random() < 0.25:
        return rand_realization(rng, r, n)[1]
    while True:
        m = stiefel_matroid(rng, r, n, inf_prob=rng.choice([0.0, 0.2, 0.4]))
        if m is not None:
            return m


def with_zero_column(arrow, j):
    if arrow.field is not None:
        rows = [[ZERO if k == j else e for k, e in enumerate(row)] for row in arrow.field.rows]
        return RepArrow(arrow.src, arrow.dst, field=FieldMatrix(rows))
    rows = [[TropValue(None) if k == j else e for k, e in enumerate(row)]
            for row in arrow.trop.rows]
    return RepArrow(arrow.src, arrow.dst, trop=TropMatrix(rows))


def random_arrow_instance(rng, k):
    """One loop-free arrow u -> w with random layers and matroids; every
    tenth instance has r = 1 (so r - 1 = 0), every tenth r = n, every
    tenth s = n, and one in four gets an extra zero column."""
    n = rng.randint(1, 5)
    r, s = rng.randint(1, n), rng.randint(1, n)
    r = {0: 1, 1: n}.get(k % 10, r)
    s = n if k % 10 == 2 else s
    arrow = rand_arrow(rng, n, "u", "w")
    if rng.random() < 0.25:
        arrow = with_zero_column(arrow, rng.randrange(n))
    rep = QuiverRepresentation(n, ["u", "w"], [arrow], {"u": r, "w": s})
    return rep, {"u": rand_matroid(rng, r, n), "w": rand_matroid(rng, s, n)}


def perturbed_chain_instance(rng):
    """A field identity chain u -> w with nested realizations (a genuine
    point), and one value of the top matroid moved by a small amount; or,
    one time in five, left as it is."""
    n = rng.randint(2, 5)
    r = rng.randint(1, n - 1)
    s = rng.randint(r + 1, n)
    u, mu = rand_realization(rng, r, n)
    while True:
        extra = rand_realization(rng, s - r, n)[0]
        v = FieldMatrix(list(u.rows) + list(extra.rows))
        try:
            nu = pluecker_valuations(v)
        except NotARealizationError:
            continue
        if nu.r == s:
            break
    if rng.random() < 0.8:
        table = nu.table()
        b = rng.choice(sorted(table))
        table[b] = table[b] + Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        nu = ValuatedMatroid(n, s, table)
    rep = identity_chain_representation(n, [r, s])
    return rep, {"v1": mu, "v2": nu}


def test_loop_free_arrows_match_reference():
    rng = random.Random(20231207)
    stages, layers = {"accepted": 0, "matroid": 0, "relation": 0}, set()
    for k in range(1200):
        rep, mus = (perturbed_chain_instance(rng) if k % 4 == 3
                    else random_arrow_instance(rng, k))
        got = qdr_membership(rep, mus)
        assert got == reference_qdr_membership(rep, mus), (rep.arrows, mus)
        stages["accepted" if got[0] else got[1][0]] += 1
        layers.add(rep.arrows[0].field is not None)
    assert layers == {True, False}
    assert stages["relation"] >= 300 and stages["accepted"] >= 100, stages


def test_infinite_values_and_empty_relations_match_reference():
    """Every arrow value infinite, or the matroid supports so thin that
    most relations have no finite term."""
    rng = random.Random(20231208)
    for n in range(1, 5):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                mus = {"u": rand_matroid(rng, r, n), "w": rand_matroid(rng, s, n)}
                for arrow in (
                    RepArrow("u", "w", trop=TropMatrix([[None] * n] * n)),
                    RepArrow("u", "w", field=FieldMatrix([[0] * n] * n)),
                    RepArrow("u", "w", trop=TropMatrix.identity(n)),
                    RepArrow("u", "w", field=FieldMatrix.identity(n)),
                ):
                    rep = QuiverRepresentation(n, ["u", "w"], [arrow], {"u": r, "w": s})
                    assert qdr_membership(rep, mus) == reference_qdr_membership(rep, mus)


def test_several_arrows_and_loops_match_reference():
    """The certificate names the first failing arrow; loops still take the
    generator path."""
    rng = random.Random(20231209)
    for _ in range(150):
        n = rng.randint(1, 4)
        vertices = ["a", "b", "c"][: rng.randint(1, 3)]
        dim = {v: rng.randint(1, n) for v in vertices}
        arrows = [rand_arrow(rng, n, rng.choice(vertices), rng.choice(vertices))
                  for _ in range(rng.randint(1, 3))]
        rep = QuiverRepresentation(n, vertices, arrows, dim)
        mus = {v: rand_matroid(rng, dim[v], n) for v in vertices}
        assert qdr_membership(rep, mus) == reference_qdr_membership(rep, mus)


def fifths(m):
    """m with every value divided by 5, over 5ths and 10ths: dividing by a
    positive constant keeps the exchange axiom."""
    return ValuatedMatroid(m.n, m.r, {b: v.value / 5 for b, v in m.table().items()})


def cancelling_loop(rng, n):
    """A rational field loop whose diagonal entries are all one nonzero
    element: its diagonal terms share monomials and cancel."""
    while True:
        arrow = rand_scaled_arrow(rng, n, "v", "v")
        if arrow.field is not None and not arrow.field.rows[0][0].is_zero:
            break
    d = arrow.field.rows[0][0]
    return RepArrow("v", "v", field=FieldMatrix(
        [[d if i == j else e for j, e in enumerate(row)] for i, row in enumerate(arrow.field.rows)]))


def invariant_loop(rng, n, r):
    """A rational field loop A = d*I + U^T Q on [n] and the valuated matroid
    of a rank-r U, whose row span A maps into itself, so that the matroid
    is a realizable point of the loop; U's first row is multiplied by
    t^(k/5), which raises every value by k/5."""
    while True:
        u = rational_matrix(rng, r, n, exp_dens=(1, 2, 3))
        if rank_via_minors(u) == r:
            break
    q = rational_matrix(rng, r, n, exp_dens=(1, 2, 3)).rows
    d = PuiseuxElement({Fraction(rng.randint(-2, 2), 3): Fraction(rng.choice([-1, 1, 3]), 2)})
    a = FieldMatrix([[(d if i == j else ZERO) + sum((u.rows[k][i] * q[k][j] for k in range(r)), ZERO)
                      for j in range(n)] for i in range(n)])
    shift = PuiseuxElement.t_power(Fraction(rng.randint(-5, 5), 5))
    u = FieldMatrix([[shift * x for x in u.rows[0]]] + list(u.rows[1:]))
    return RepArrow("v", "v", field=a), pluecker_valuations(u)


def rational_loop_instance(rng, k):
    """A loop v -> v on [n], n <= 4, and a matroid at v with values over
    5ths, by k % 3: a field loop whose monomials cancel and a random
    matroid; a rand_scaled_arrow loop (exponents over 1, 2 and 3, both
    layers) and a random matroid or, at rank 1, a point with coordinates
    k/5 or infinity; or a loop with a realizable point (invariant_loop),
    one value moved by k/5 one time in two, with r < n.  Every eighth
    instance has a loop-free arrow u -> v before the loop, and every eighth
    one v -> u after it."""
    n = rng.randint(1, 4)
    r = rng.randint(1, n)
    if k % 3 == 0:
        loop, mu = cancelling_loop(rng, n), fifths(rand_matroid(rng, r, n))
    elif k % 3 == 1:
        loop, mu = rand_scaled_arrow(rng, n, "v", "v"), fifths(rand_matroid(rng, r, n))
        point = {(i,): Fraction(rng.randint(-5, 5), 5) for i in range(1, n + 1)
                 if rng.random() < 0.8}
        if r == 1 and point and rng.random() < 0.5:
            mu = ValuatedMatroid(n, 1, point)
    else:
        n = max(n, 2)
        r = min(r, n - 1)  # so that the loop has relations
        loop, mu = invariant_loop(rng, n, r)
        if rng.random() < 0.5:
            table = {b: v.value for b, v in mu.table().items()}
            b = rng.choice(sorted(table))
            table[b] += Fraction(rng.choice([-3, -1, 1, 2]), 5)
            mu = ValuatedMatroid(n, r, table)
    if k % 4 != 3:
        return QuiverRepresentation(n, ["v"], [loop], {"v": r}), {"v": mu}
    s = rng.randint(1, n)
    other = rand_scaled_arrow(rng, n, "u", "v") if k % 8 == 3 else rand_scaled_arrow(rng, n, "v", "u")
    arrows = [other, loop] if k % 8 == 3 else [loop, other]
    rep = QuiverRepresentation(n, ["u", "v"], arrows, {"u": s, "v": r})
    return rep, {"u": fifths(rand_matroid(rng, s, n)), "v": mu}


def test_rational_loops_match_reference():
    rng = random.Random(20231210)
    stages, layers = Counter(), Counter()
    for k in range(900):
        rep, mus = rational_loop_instance(rng, k)
        got = qdr_membership(rep, mus)
        assert got == reference_qdr_membership(rep, mus), (rep.arrows, mus)
        if got[0]:
            stages["accepted", k % 3] += 1
        else:
            arrow = rep.arrows[got[1][1]] if got[1][0] == "relation" else None
            stages["loop" if arrow and arrow.src == arrow.dst else got[1][0]] += 1
        loop = next(a for a in rep.arrows if a.src == a.dst)
        layers["field" if loop.field is not None else "tropical"] += 1
    assert layers["field"] >= 400 and layers["tropical"] >= 100, layers
    # realizable points on loops with relations, and rejections by a loop
    assert stages["accepted", 2] >= 100 and stages["loop"] >= 200, stages


def test_loops_are_decided_without_relation_objects(monkeypatch):
    """quiver._convert builds the Puiseux and tropical relation objects;
    neither membership route may call it on a loop."""
    rng = random.Random(20231214)
    cases = [rational_loop_instance(rng, k) for k in range(120)]
    cases.append((QuiverRepresentation(2, ["v"], [RepArrow("v", "v", field=FieldMatrix(
        [[1, 0], [0, PuiseuxElement({0: 1, 1: 1})]]))], {"v": 1}),
                  {"v": ValuatedMatroid(2, 1, {(1,): 0, (2,): 0})}))
    expected = [(reference_qdr_membership(rep, mus), qdr_cross_check(rep, mus)[1])
                for rep, mus in cases]
    assert expected[-1][0] == (False, ("relation", 0, (), (1, 2)))

    def no_relation_objects(*args):
        raise AssertionError("a relation object was built")

    monkeypatch.setattr(quiver, "_convert", no_relation_objects)
    for (rep, mus), (relation, containment) in zip(cases, expected):
        assert qdr_membership(rep, mus) == relation
        assert qdr_cross_check(rep, mus) == (relation, containment)
