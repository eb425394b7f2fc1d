"""The flat relation-term kernel of ``qdr_membership`` against the loop it
replaced on arrows between two distinct vertices.

``reference_qdr_membership`` is the original relation route, kept
verbatim: it builds every tropical quiver Pluecker relation with
``quiver_pluecker_relations`` and evaluates it with ``trop_poly_vanishes``.
The library must return the identical (bool, certificate) pair: the same
verdict, and on a rejection the same first failing (arrow, I, J) in the
generator's order.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

from tropquiver import (
    FieldMatrix,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    TropValue,
    ValuatedMatroid,
    identity_chain_representation,
    is_valuated_matroid,
    pluecker_valuations,
    qdr_membership,
    quiver_pluecker_relations,
    trop_poly_vanishes,
)
from tropquiver.errors import NotARealizationError
from tropquiver.puiseux import ZERO
from tropquiver.quiver import _assignment, _validate_tuple
from tropquiver.trop import trop_sum

from helpers import rand_arrow, rand_realization, rand_trop_value


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
