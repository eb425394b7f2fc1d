"""What the two membership routes decide, as seeded properties.

The relation (I, J) of an arrow A from mu to nu has one term
val(A_ij) + mu(I+j) + nu(J-i) per pair (i, j), and the relation route asks
for its minimum to be attained twice.  The containment route evaluates
the same terms grouped by target index i: it asks for the minimum to be
attained at two distinct i.  That holds on loops too, where the relation
route first merges the terms that are one monomial.
"""

import random
from itertools import combinations

from tropquiver import (
    FieldMatrix,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    containment_check,
    is_valuated_matroid,
    pluecker_valuations,
    qdr_cross_check,
    qdr_membership,
    qdr_membership_via_containment,
    trop_qgr_witness_check,
    valuation,
)
from tropquiver.matroid import _unique_minimum
from tropquiver.puiseux import rank_via_minors
from tropquiver.trop import min_attained_twice, trop_sum

from helpers import (
    rand_arrow,
    rand_field_matrix,
    rand_realization,
    rand_scaled_field_matrix,
    rand_weakly_monomial,
)
from test_qdr_reference import rand_matroid, random_arrow_instance


def grouped_rule(rep, mus):
    """Membership with the grouped rule: per relation, each target index i
    keeps only its least term over j, and the minimum of those must be
    infinite or attained at two distinct i."""
    if not all(is_valuated_matroid(m)[0] for m in mus.values()):
        return False
    n = rep.n
    for a_idx, arrow in enumerate(rep.arrows):
        a, mu, nu = rep.trop_matrix(a_idx), mus[arrow.src], mus[arrow.dst]
        for i_set in combinations(range(1, n + 1), mu.r - 1):
            for j_set in combinations(range(1, n + 1), nu.r + 1):
                groups = [
                    trop_sum(a.entry(i - 1, j - 1) + mu.value(i_set + (j,))
                             for j in range(1, n + 1) if j not in i_set)
                    + nu.value(tuple(e for e in j_set if e != i))
                    for i in j_set
                ]
                if not min_attained_twice(groups):
                    return False
    return True


def test_grouped_rule_is_the_containment_route():
    rng = random.Random(20231210)
    gaps = 0
    for k in range(600):
        rep, mus = random_arrow_instance(rng, k)
        grouped = grouped_rule(rep, mus)
        assert grouped == qdr_membership_via_containment(rep, mus)[0], (rep.arrows, mus)
        gaps += qdr_membership(rep, mus)[0] and not grouped
    # the rules differ on these instances, so the identity is not vacuous
    assert gaps > 0


def random_loop_instance(rng, k):
    """One loop v -> v on [n], n <= 4, with random layers, every third one
    the tropical identity, and a random matroid."""
    n = rng.randint(1, 4)
    r = rng.randint(1, n)
    arrow = (RepArrow("v", "v", trop=TropMatrix.identity(n)) if k % 3 == 0
             else rand_arrow(rng, n, "v", "v"))
    return QuiverRepresentation(n, ["v"], [arrow], {"v": r}), {"v": rand_matroid(rng, r, n)}


def test_grouped_rule_is_the_containment_route_on_loops():
    rng = random.Random(20231215)
    layers, gaps = set(), 0
    for k in range(600):
        rep, mus = random_loop_instance(rng, k)
        grouped = grouped_rule(rep, mus)
        assert grouped == qdr_membership_via_containment(rep, mus)[0], (rep.arrows, mus)
        gaps += qdr_membership(rep, mus)[0] != grouped
        layers.add(rep.arrows[0].field is not None)
    assert layers == {True, False}
    # the relation route differs on loops, so the identity is not vacuous
    assert gaps > 0


def test_containment_acceptance_implies_relation_acceptance():
    rng = random.Random(20231211)
    accepted = 0
    for k in range(600):
        rep, mus = random_arrow_instance(rng, k)
        if qdr_membership_via_containment(rep, mus)[0]:
            accepted += 1
            assert qdr_membership(rep, mus) == (True, None), (rep.arrows, mus)
    assert accepted >= 200


def realizable_point(rng, arrow=lambda rng, n: rand_field_matrix(rng, n, n)):
    """A random field arrow A = arrow(rng, n) on [n], U of rank r and V of
    rank s >= r whose rows are those of A*U and s - r more: (U, V) is a
    subrepresentation by construction, whenever V has full row rank."""
    while True:
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        s = rng.randint(r, n)
        a = arrow(rng, n)
        u = rand_realization(rng, r, n)[0]
        extra = [] if s == r else list(rand_field_matrix(rng, s - r, n).rows)
        v = FieldMatrix([a.matvec(row) for row in u.rows] + extra)
        if rank_via_minors(v) == s:
            rep = QuiverRepresentation(n, ["u", "w"], [RepArrow("u", "w", field=a)],
                                       {"u": r, "w": s})
            return rep, {"u": u, "w": v}


def test_realizable_points_are_accepted_by_relations():
    rng = random.Random(20231212)
    for _ in range(500):
        rep, witness = realizable_point(rng)
        mus = {vertex: pluecker_valuations(m) for vertex, m in witness.items()}
        assert trop_qgr_witness_check(rep, mus, witness) == (True, None)
        assert qdr_membership(rep, mus) == (True, None), (rep.arrows, witness)


def test_weakly_monomial_realizable_points_are_accepted_by_both_routes():
    # the paper's compatibility of weakly monomial arrows: a realizable
    # point is a point of the quiver Dressian by either route
    rng = random.Random(20231213)
    for _ in range(400):
        rep, witness = realizable_point(rng, lambda rng, n: rand_weakly_monomial(rng, n)[0])
        mus = {vertex: pluecker_valuations(m) for vertex, m in witness.items()}
        assert trop_qgr_witness_check(rep, mus, witness) == (True, None)
        assert qdr_membership(rep, mus) == (True, None), (rep.arrows, witness)
        assert qdr_membership_via_containment(rep, mus) == (True, None), (rep.arrows, witness)


def test_cross_check_runs_both_routes():
    rng = random.Random(20231214)
    for k in range(200):
        rep, mus = random_arrow_instance(rng, k)
        assert qdr_cross_check(rep, mus) == (
            qdr_membership(rep, mus), qdr_membership_via_containment(rep, mus))


def test_routes_decide_field_arrows_without_a_valuation_matrix(monkeypatch):
    # both routes read val(A) from the field layer itself: with trop_matrix
    # unusable they decide every field-arrow instance, loops included, as
    # before
    rng = random.Random(20231216)
    instances = []
    for k in range(900):
        rep, mus = (random_loop_instance if k % 2 else random_arrow_instance)(rng, k)
        if all(a.field is not None for a in rep.arrows):
            routes = (qdr_membership(rep, mus), qdr_membership_via_containment(rep, mus),
                      qdr_cross_check(rep, mus))
            instances.append((rep, mus, routes))

    def unusable(self, a_idx):
        raise AssertionError("a decision built a valuation matrix")

    monkeypatch.setattr(QuiverRepresentation, "trop_matrix", unusable)
    for rep, mus, routes in instances:
        assert (qdr_membership(rep, mus), qdr_membership_via_containment(rep, mus),
                qdr_cross_check(rep, mus)) == routes, (rep.arrows, mus)
    loops = [routes for rep, _, routes in instances if rep.arrows[0].src == rep.arrows[0].dst]
    assert len(loops) >= 50
    # each route accepts and rejects, on loops and between vertices
    for group in (loops, [routes for _, _, routes in instances]):
        assert {ok for routes in group for ok, _ in routes[:2]} == {True, False}


def test_walk_reads_a_field_matrix_as_its_valuation():
    # the field layer and its valuation matrix give one verdict and one
    # certificate, in the grouped walk (containment) and the ungrouped one
    # (relations between distinct vertices)
    rng = random.Random(20231217)
    verdicts = set()
    for _ in range(500):
        n = rng.randint(1, 4)
        r, s = rng.randint(1, n), rng.randint(1, n)
        a = rand_scaled_field_matrix(rng, n, rng.choice([0.35, 0.7, 1.0]))
        val = TropMatrix([[valuation(e) for e in row] for row in a.rows])
        mu, nu = rand_matroid(rng, r, n), rand_matroid(rng, s, n)
        contained = containment_check(a, mu, nu)
        assert contained == containment_check(val, mu, nu), (a, mu, nu)
        unique = _unique_minimum(a._finite_entries(), mu, nu, grouped=False)
        assert unique == _unique_minimum(val._finite_entries(), mu, nu, grouped=False), (a, mu, nu)
        verdicts.add((contained[0], unique is None))
    assert verdicts == {(True, True), (False, True), (False, False)}
