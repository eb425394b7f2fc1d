"""Min-plus core: arithmetic laws, vectors, span membership, polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropquiver import (
    INF,
    TropMatrix,
    TropPolynomial,
    TropValue,
    TropVector,
    min_attained_twice,
    projective_normalize,
    projectively_equal,
    trop_matvec,
    trop_poly_vanishes,
    trop_span_membership,
)
from tropquiver.errors import DegeneratePointError, ShapeError, UsageError
from tropquiver.trop import trop_sum

rationals = st.fractions(max_denominator=12, min_value=-50, max_value=50)
trop_values = st.one_of(st.none(), rationals).map(TropValue)
finite_values = rationals.map(TropValue)


def vec(*entries):
    return TropVector([TropValue(None) if e is None else TropValue(e) for e in entries])


class TestTropValue:
    def test_addition_is_classical_plus(self):
        assert TropValue(2) + TropValue(Fraction(1, 2)) == TropValue(Fraction(5, 2))

    def test_infinity_absorbs(self):
        assert (INF + TropValue(3)).is_inf
        assert (TropValue(3) + INF).is_inf

    def test_floats_rejected(self):
        with pytest.raises(UsageError):
            TropValue(0.5)

    def test_subtraction_requires_finite(self):
        with pytest.raises(UsageError):
            INF - TropValue(1)

    @given(trop_values, trop_values)
    def test_order_total_with_inf_largest(self, a, b):
        assert (a <= b) or (b <= a)
        assert a <= INF

    @given(trop_values, trop_values, trop_values)
    def test_distributivity(self, a, b, c):
        # a (*) (b (+) c) == (a (*) b) (+) (a (*) c)
        assert a + trop_sum([b, c]) == trop_sum([a + b, a + c])


class TestMinAttainedTwice:
    def test_all_infinite_counts_as_vanishing(self):
        assert min_attained_twice([INF])
        assert min_attained_twice([INF, INF])

    def test_unique_finite_minimum_fails(self):
        assert not min_attained_twice([TropValue(0), TropValue(1)])
        assert not min_attained_twice([TropValue(0), INF])

    def test_tied_minimum_passes(self):
        assert min_attained_twice([TropValue(2), TropValue(2), TropValue(5)])

    def test_empty_is_an_error(self):
        with pytest.raises(UsageError):
            min_attained_twice([])


class TestVectors:
    def test_projective_normalize(self):
        assert projective_normalize(vec(3, None, 5)) == vec(0, None, 2)

    @given(st.lists(trop_values, min_size=1, max_size=5))
    def test_normalize_idempotent(self, entries):
        v = TropVector(entries)
        if v.is_all_inf:
            with pytest.raises(DegeneratePointError):
                projective_normalize(v)
        else:
            w = projective_normalize(v)
            assert projective_normalize(w) == w
            assert projectively_equal(v, w)

    def test_oplus_is_min(self):
        assert vec(1, None).oplus(vec(2, 3)) == vec(1, 3)

    def test_matvec(self):
        a = TropMatrix([[0, None], [1, 2]])
        assert trop_matvec(a, vec(5, 0)) == vec(5, 2)

    def test_matvec_shape_error(self):
        with pytest.raises(ShapeError):
            trop_matvec(TropMatrix([[0]]), vec(0, 0))


class TestSpanMembership:
    def test_generator_is_member(self):
        g = [vec(0, 1, None), vec(None, 0, 0)]
        ok, coeffs, bad = trop_span_membership(g, vec(2, 3, None))
        assert ok and bad is None
        assert coeffs[0] == TropValue(2) and coeffs[1] is None

    def test_combination_is_member(self):
        g = [vec(0, 1, None), vec(None, 0, 0)]
        x = g[0].scale(TropValue(1)).oplus(g[1].scale(TropValue(0)))
        assert trop_span_membership(g, x)[0]

    def test_non_member_rejected_with_coordinate(self):
        g = [vec(0, 0, None)]
        ok, _, bad = trop_span_membership(g, vec(0, 1, None))
        assert not ok and bad in (0, 1)

    def test_projective_mode_shifts_the_point(self):
        g = [vec(0, 1, None)]
        assert trop_span_membership(g, vec(7, 8, None), projective=True)[0]

    def test_random_combinations_are_members(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 5)
            gens = []
            while len(gens) < rng.randint(1, 3):
                v = TropVector(
                    [
                        TropValue(None)
                        if rng.random() < 0.3
                        else TropValue(rng.randint(-5, 5))
                        for _ in range(n)
                    ]
                )
                if not v.is_all_inf:
                    gens.append(v)
            x = gens[0].scale(TropValue(rng.randint(-3, 3)))
            for g in gens[1:]:
                x = x.oplus(g.scale(TropValue(rng.randint(-3, 3))))
            assert trop_span_membership(gens, x)[0]


class TestTropPolynomial:
    def test_duplicate_exponents_rejected(self):
        with pytest.raises(UsageError):
            TropPolynomial([(0, ("x",)), (1, ("x",))])

    def test_vanishing(self):
        p = TropPolynomial([(0, ("x",)), (0, ("y",))])
        assert trop_poly_vanishes(p, {"x": TropValue(1), "y": TropValue(1)})
        assert not trop_poly_vanishes(p, {"x": TropValue(0), "y": TropValue(1)})

    def test_empty_polynomial_vanishes(self):
        assert trop_poly_vanishes(TropPolynomial([]), {})

    def test_unassigned_label_is_an_error(self):
        with pytest.raises(UsageError):
            trop_poly_vanishes(TropPolynomial([(0, ("x",))]), {})
