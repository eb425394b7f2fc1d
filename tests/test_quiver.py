"""Quiver representations, Pluecker relations and the membership routes."""

import random
from fractions import Fraction

import pytest

from tropquiver import (
    INF,
    FieldMatrix,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    ValuatedMatroid,
    all_relations,
    containment_check,
    flag_mode_check,
    grassmann_pluecker_relations,
    identity_chain_representation,
    is_subrepresentation,
    pluecker_valuations,
    qdr_membership,
    qdr_membership_via_containment,
    quiver_pluecker_relations,
    trop_qgr_witness_check,
    uniform_matroid,
)
from tropquiver.errors import CapacityError, UsageError
from tropquiver.quiver import RELATION_CAP

from helpers import rand_field_matrix, rand_realization, rank1_matroid

one = PuiseuxElement.const(1)
zero = PuiseuxElement()
t = PuiseuxElement.t_power(1)


def kronecker_rep():
    """Two parallel arrows on [2]: identity and diag(1, 1+t)."""
    return QuiverRepresentation(
        2,
        ["u", "w"],
        [
            RepArrow("u", "w", field=FieldMatrix.identity(2)),
            RepArrow("u", "w", field=FieldMatrix([[one, zero], [zero, one + t]])),
        ],
        {"u": 1, "w": 1},
    )


def diagonal_rep(n):
    """Parallel arrows on [n]: identity and diag(1, 1+t, ..., 1+t^(n-1))."""
    diag = FieldMatrix(
        [
            [one + PuiseuxElement.t_power(i) if i == j and i else (one if i == j else zero) for j in range(n)]
            for i in range(n)
        ]
    )
    return QuiverRepresentation(
        n,
        ["u", "w"],
        [RepArrow("u", "w", field=FieldMatrix.identity(n)), RepArrow("u", "w", field=diag)],
        {"u": 1, "w": 1},
    )


def two_towers_rep():
    """Diamond quiver on [4] with identity arrows and d = (1, 2, 2, 3)."""
    I4 = FieldMatrix.identity(4)
    return QuiverRepresentation(
        4,
        ["v1", "v2", "v3", "v4"],
        [
            RepArrow("v1", "v2", field=I4),
            RepArrow("v1", "v3", field=I4),
            RepArrow("v2", "v4", field=I4),
            RepArrow("v3", "v4", field=I4),
        ],
        {"v1": 1, "v2": 2, "v3": 2, "v4": 3},
    )


def two_towers_witness():
    """Subrepresentation spanning <b1>, <b1,b2>, <b1,b4>, <b1,b2,b4>."""
    def span(*idxs):
        return FieldMatrix([[one if j + 1 == i else zero for j in range(4)] for i in idxs])

    return {"v1": span(1), "v2": span(1, 2), "v3": span(1, 4), "v4": span(1, 2, 4)}


TWO_TOWERS_SUPPORTS = [
    # one Grassmann-Pluecker relation per rank-2 vertex
    [("v2", (1, 2), "v2", (3, 4)), ("v2", (1, 3), "v2", (2, 4)), ("v2", (1, 4), "v2", (2, 3))],
    [("v3", (1, 2), "v3", (3, 4)), ("v3", (1, 3), "v3", (2, 4)), ("v3", (1, 4), "v3", (2, 3))],
    # arrows v1 -> v2 and v1 -> v3
    [("v1", (1,), "v2", (2, 3)), ("v1", (2,), "v2", (1, 3)), ("v1", (3,), "v2", (1, 2))],
    [("v1", (1,), "v2", (2, 4)), ("v1", (2,), "v2", (1, 4)), ("v1", (4,), "v2", (1, 2))],
    [("v1", (1,), "v2", (3, 4)), ("v1", (3,), "v2", (1, 4)), ("v1", (4,), "v2", (1, 3))],
    [("v1", (2,), "v2", (3, 4)), ("v1", (3,), "v2", (2, 4)), ("v1", (4,), "v2", (2, 3))],
    [("v1", (1,), "v3", (2, 3)), ("v1", (2,), "v3", (1, 3)), ("v1", (3,), "v3", (1, 2))],
    [("v1", (1,), "v3", (2, 4)), ("v1", (2,), "v3", (1, 4)), ("v1", (4,), "v3", (1, 2))],
    [("v1", (1,), "v3", (3, 4)), ("v1", (3,), "v3", (1, 4)), ("v1", (4,), "v3", (1, 3))],
    [("v1", (2,), "v3", (3, 4)), ("v1", (3,), "v3", (2, 4)), ("v1", (4,), "v3", (2, 3))],
    # arrows v2 -> v4 and v3 -> v4
    [("v2", (1, 2), "v4", (1, 3, 4)), ("v2", (1, 3), "v4", (1, 2, 4)), ("v2", (1, 4), "v4", (1, 2, 3))],
    [("v2", (1, 2), "v4", (2, 3, 4)), ("v2", (2, 3), "v4", (1, 2, 4)), ("v2", (2, 4), "v4", (1, 2, 3))],
    [("v2", (1, 3), "v4", (2, 3, 4)), ("v2", (2, 3), "v4", (1, 3, 4)), ("v2", (3, 4), "v4", (1, 2, 3))],
    [("v2", (1, 4), "v4", (2, 3, 4)), ("v2", (2, 4), "v4", (1, 3, 4)), ("v2", (3, 4), "v4", (1, 2, 4))],
    [("v3", (1, 2), "v4", (1, 3, 4)), ("v3", (1, 3), "v4", (1, 2, 4)), ("v3", (1, 4), "v4", (1, 2, 3))],
    [("v3", (1, 2), "v4", (2, 3, 4)), ("v3", (2, 3), "v4", (1, 2, 4)), ("v3", (2, 4), "v4", (1, 2, 3))],
    [("v3", (1, 3), "v4", (2, 3, 4)), ("v3", (2, 3), "v4", (1, 3, 4)), ("v3", (3, 4), "v4", (1, 2, 3))],
    [("v3", (1, 4), "v4", (2, 3, 4)), ("v3", (2, 4), "v4", (1, 3, 4)), ("v3", (3, 4), "v4", (1, 2, 4))],
]


def canonical_support(classical):
    """Flattened (vertex, subset, vertex, subset) triple per monomial."""
    return tuple(tuple(mono[0] + mono[1]) for mono, _ in classical)


def normalized_signs(classical):
    """Coefficient signs on sorted monomials, leading sign forced to +1."""
    consts = []
    for _, coeff in classical:
        (e, c), = coeff.terms()
        assert e == 0 and abs(c) == 1
        consts.append(int(c))
    if consts[0] < 0:
        consts = [-c for c in consts]
    return tuple(consts)


class TestGrassmannPluecker:
    def test_gr24_single_relation(self):
        rels = list(grassmann_pluecker_relations(4, 2, "p"))
        supports = {tuple(m for m, _ in classical) for _, _, classical, _ in rels}
        three_term = {
            (
                (("p", (1, 2)), ("p", (3, 4))),
                (("p", (1, 3)), ("p", (2, 4))),
                (("p", (1, 4)), ("p", (2, 3))),
            )
        }
        assert supports == three_term
        for _, _, classical, _ in rels:
            assert normalized_signs(classical) == (1, -1, 1)

    def test_rank_1_and_rank_n_have_none(self):
        assert list(grassmann_pluecker_relations(4, 1, "p")) == []
        assert list(grassmann_pluecker_relations(1, 1, "p")) == []

    def test_gr34_cancels_classically(self):
        # the three-term relation of Gr(3,4) collapses; nothing survives
        assert list(grassmann_pluecker_relations(4, 3, "p")) == []


class TestKronecker:
    def test_relations(self):
        rep = kronecker_rep()
        rels = all_relations(rep)
        assert len(rels) == 2
        upper, lower = rels
        assert [m for m, _ in upper["classical"]] == [
            (("u", (1,)), ("w", (2,))),
            (("u", (2,)), ("w", (1,))),
        ]
        # identity arrow: coefficients -1 and 1; valued arrow: -1 and 1+t
        assert [c for _, c in upper["classical"]] == [-one, one]
        assert [c for _, c in lower["classical"]] == [-one, one + t]

    def test_memberships(self):
        rep = kronecker_rep()
        accept = [(0, None), (None, 0), (0, 5)]
        for point in accept:
            mus = {"u": rank1_matroid(2, point), "w": rank1_matroid(2, point)}
            assert qdr_membership(rep, mus) == (True, None)
        mus = {"u": rank1_matroid(2, (0, 0)), "w": rank1_matroid(2, (0, 1))}
        ok, cert = qdr_membership(rep, mus)
        assert not ok and cert[0] == "relation"

    def test_witnesses(self):
        rep = kronecker_rep()
        e1 = FieldMatrix([[one, zero]])
        e2 = FieldMatrix([[zero, one]])
        mixed = FieldMatrix([[one, one]])
        perturbed = FieldMatrix([[one, t]])
        for w, vals in ((e1, (0, None)), (e2, (None, 0))):
            mus = {"u": rank1_matroid(2, vals), "w": rank1_matroid(2, vals)}
            assert trop_qgr_witness_check(rep, mus, {"u": w, "w": w}) == (True, None)
        for w, vals in ((mixed, (0, 0)), (perturbed, (0, 1))):
            mus = {"u": rank1_matroid(2, vals), "w": rank1_matroid(2, vals)}
            ok, cert = trop_qgr_witness_check(rep, mus, {"u": w, "w": w})
            assert not ok and cert[0] == "subrepresentation"


class TestDiagonalFamily:
    def test_coordinate_points_verify(self):
        rep = diagonal_rep(3)
        for k in range(3):
            vals = [0 if i == k else None for i in range(3)]
            span = FieldMatrix([[one if j == k else zero for j in range(3)]])
            mus = {"u": rank1_matroid(3, vals), "w": rank1_matroid(3, vals)}
            assert qdr_membership(rep, mus) == (True, None)
            assert trop_qgr_witness_check(rep, mus, {"u": span, "w": span}) == (True, None)

    def test_diagonal_family_passes(self):
        rep = diagonal_rep(3)
        rng = random.Random(29)
        for _ in range(10):
            vals = (0, Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            mus = {"u": rank1_matroid(3, vals), "w": rank1_matroid(3, vals)}
            assert qdr_membership(rep, mus)[0]

    def test_off_family_fails(self):
        rep = diagonal_rep(3)
        rng = random.Random(31)
        for _ in range(10):
            a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            mus = {
                "u": rank1_matroid(3, (0, a, b)),
                "w": rank1_matroid(3, (0, a + 1, b + 3)),
            }
            assert not qdr_membership(rep, mus)[0]


class TestTwoTowers:
    def test_exactly_eighteen_relations(self):
        rels = all_relations(two_towers_rep())
        assert len(rels) == 18

    def test_supports_match_the_table(self):
        rels = all_relations(two_towers_rep())
        got = {canonical_support(r["classical"]) for r in rels}
        expected = {tuple(rel) for rel in TWO_TOWERS_SUPPORTS}
        assert got == expected

    def test_signs_alternate(self):
        # each surviving three-term relation carries signs (+, -, +) on the
        # sorted monomials; the all-plus variant does not vanish classically
        for r in all_relations(two_towers_rep()):
            assert normalized_signs(r["classical"]) == (1, -1, 1)

    def test_witness_point(self):
        rep = two_towers_rep()
        witness = two_towers_witness()
        assert is_subrepresentation(rep, witness) == (True, None)
        mus = {v: pluecker_valuations(m) for v, m in witness.items()}
        assert qdr_membership(rep, mus) == (True, None)
        assert qdr_membership_via_containment(rep, mus) == (True, None)
        assert trop_qgr_witness_check(rep, mus, witness) == (True, None)

    def test_broken_tower_is_rejected(self):
        # <b1,b4> does not map into <b1,b2,b3> under the identity
        rep = two_towers_rep()
        witness = two_towers_witness()
        witness["v4"] = FieldMatrix(
            [[one, zero, zero, zero], [zero, one, zero, zero], [zero, zero, one, zero]]
        )
        ok, a_idx = is_subrepresentation(rep, witness)
        assert not ok and a_idx == 3


class TestContainment:
    def test_identity_containment_iff_quotient_direction(self):
        a = TropMatrix.identity(3)
        assert containment_check(a, uniform_matroid(3, 1), uniform_matroid(3, 2))[0]
        ok, cert = containment_check(
            a, uniform_matroid(3, 2), ValuatedMatroid(3, 1, {(1,): 0})
        )
        assert not ok and cert is not None

    def test_containment_acceptance_implies_relations_vanish(self):
        # only this direction is an identity; see the tied-terms test below
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(2, 4)
            r = rng.randint(1, min(2, n))
            s = rng.randint(1, min(3, n))
            _, mu = rand_realization(rng, r, n)
            _, nu = rand_realization(rng, s, n)
            arrow = rand_field_matrix(rng, n, n)
            rep = QuiverRepresentation(
                n, ["u", "w"], [RepArrow("u", "w", field=arrow)], {"u": r, "w": s}
            )
            mus = {"u": mu, "w": nu}
            if qdr_membership_via_containment(rep, mus)[0]:
                assert qdr_membership(rep, mus)[0]

    def test_tied_terms_separate_the_routes(self):
        # Frozen instance where every tropical relation vanishes because two
        # terms sharing the same target index tie at the minimum, yet the
        # image of a cocircuit of mu lands outside trop(nu).  The relation
        # route groups nothing and accepts; the containment route groups by
        # target index, sees a unique minimum, and rejects.  Hand-checked:
        # mu = (1,2,1), nu = (1,1,0), image of the cocircuit is (2,1,1), and
        # for J = {1,2} the terms 2 (from j=1) and 2 (from j=3) both hit
        # target index i=2.
        mu = rank1_matroid(3, [1, 2, 1])
        nu = rank1_matroid(3, [1, 1, 0])
        arrow = TropMatrix([[None, 2, 1], [0, 2, 0], [0, None, 0]])
        rep = QuiverRepresentation(
            3, ["u", "w"], [RepArrow("u", "w", trop=arrow)], {"u": 1, "w": 1}
        )
        mus = {"u": mu, "w": nu}
        assert qdr_membership(rep, mus) == (True, None)
        ok, cert = qdr_membership_via_containment(rep, mus)
        assert not ok and cert is not None
        assert not containment_check(arrow, mu, nu)[0]

    def test_loop_separates_the_routes_the_other_way(self):
        # On a loop two terms of one relation can be the same monomial.
        # Here both diagonal entries of the tropical identity give p_1 p_2
        # in the relation (I, J) = ((), (1, 2)); merged, it is the only term,
        # so the relation route rejects.  The tropical identity maps every
        # tropical linear space into itself, so containment rightly accepts.
        # Hence containment acceptance implies relation acceptance only on
        # arrows with src != dst.
        rep = QuiverRepresentation(
            2, ["v"], [RepArrow("v", "v", trop=TropMatrix.identity(2))], {"v": 1}
        )
        mus = {"v": rank1_matroid(2, [0, 0])}
        assert qdr_membership(rep, mus) == (False, ("relation", 0, (), (1, 2)))
        assert qdr_membership_via_containment(rep, mus) == (True, None)


class TestFlagMode:
    def test_uniform_flag(self):
        mus = [uniform_matroid(4, 1), uniform_matroid(4, 2), uniform_matroid(4, 3)]
        assert flag_mode_check(mus) == (True, None)

    def test_matches_chain_quiver(self):
        rng = random.Random(41)
        for _ in range(15):
            n = 4
            _, m1 = rand_realization(rng, 1, n)
            _, m2 = rand_realization(rng, 2, n)
            rep = identity_chain_representation(n, [1, 2])
            flag = flag_mode_check([m1, m2])[0]
            chain = qdr_membership(rep, {"v1": m1, "v2": m2})[0]
            assert flag == chain

    def test_rank_order_enforced(self):
        with pytest.raises(UsageError):
            flag_mode_check([uniform_matroid(3, 2), uniform_matroid(3, 1)])


class TestDegenerateDimension:
    def test_n_equals_one_accepts_the_unique_point(self):
        rep = QuiverRepresentation(
            1,
            ["u", "w"],
            [RepArrow("u", "w", field=FieldMatrix.identity(1))],
            {"u": 1, "w": 1},
        )
        point = ValuatedMatroid(1, 1, {(1,): 0})
        mus = {"u": point, "w": point}
        assert qdr_membership(rep, mus) == (True, None)
        assert qdr_membership_via_containment(rep, mus) == (True, None)
        assert all_relations(rep) == []

    def test_zero_arrow_has_no_relations(self):
        # every quiver relation of a zero arrow has no terms, in both layers
        for layer in ({"field": FieldMatrix([[zero] * 3] * 3)},
                      {"trop": TropMatrix([[INF] * 3] * 3)}):
            rep = QuiverRepresentation(3, ["u", "w"], [RepArrow("u", "w", **layer)],
                                       {"u": 1, "w": 1})
            assert list(quiver_pluecker_relations(rep, 0)) == []
            assert all_relations(rep) == []
            point = ValuatedMatroid(3, 1, {(1,): 0})
            assert qdr_membership(rep, {"u": point, "w": point}) == (True, None)


class TestValidation:
    def test_relation_cap_counts_arrow_pairs(self):
        # n = 12, ranks 1 and 11: each vertex walks 66 (I, J) pairs
        # (C(12, 0) * C(12, 2) and C(12, 10) * C(12, 12)), each arrow from
        # rank 11 to rank 1 C(12, 10) * C(12, 2); none of them gives a
        # relation, so only the count can raise
        zero = TropMatrix([[INF] * 12] * 12)

        def rep(arrows):
            return QuiverRepresentation(12, ["u", "w"], [RepArrow("w", "u", trop=zero)] * arrows,
                                        {"u": 1, "w": 11})

        most = (RELATION_CAP - 2 * 66) // (66 * 66)
        assert all_relations(rep(most)) == []
        with pytest.raises(CapacityError):
            all_relations(rep(most + 1))

    def test_tuple_must_cover_vertices(self):
        rep = kronecker_rep()
        with pytest.raises(UsageError):
            qdr_membership(rep, {"u": uniform_matroid(2, 1)})

    def test_rank_must_match_dimension(self):
        rep = kronecker_rep()
        mus = {"u": uniform_matroid(2, 2), "w": uniform_matroid(2, 1)}
        with pytest.raises(UsageError):
            qdr_membership(rep, mus)

    def test_trop_layer_must_be_valuation_of_field_layer(self):
        with pytest.raises(UsageError):
            QuiverRepresentation(
                2,
                ["u", "w"],
                [
                    RepArrow(
                        "u",
                        "w",
                        field=FieldMatrix.identity(2),
                        trop=TropMatrix([[1, None], [None, 0]]),
                    )
                ],
                {"u": 1, "w": 1},
            )
