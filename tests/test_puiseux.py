"""Puiseux polynomial arithmetic, determinants, ranks, realizations."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    TropValue,
    classical_containment,
    det,
    pluecker_valuations,
    rank_via_minors,
    valuation,
)
from tropquiver.errors import (
    CapacityError,
    NotARealizationError,
    ShapeError,
    UsageError,
)

from helpers import rand_field_matrix, rand_puiseux

one = PuiseuxElement.const(1)
zero = PuiseuxElement()
t = PuiseuxElement.t_power(1)


def perm_det(m):
    """Determinant by the full permutation expansion (independent oracle)."""
    n = m.n_rows
    acc = PuiseuxElement()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = PuiseuxElement.const(1)
        for i in range(n):
            term = term * m.entry(i, perm[i])
        acc = acc + term if inversions % 2 == 0 else acc - term
    return acc


class TestArithmetic:
    def test_ring_basics(self):
        p = one + t
        assert p * p == one + 2 * t + t * t
        assert p - p == zero
        assert (p * zero).is_zero

    def test_cancelling_results_store_no_zero_coefficient(self):
        x = PuiseuxElement({Fraction(1, 2): Fraction(-2, 3), 2: 5})
        for got in (x + (-x), x - x, -x + x, x * x - x * x, x * zero):
            assert got == zero and got.is_zero and got._terms == {}
        # (1 + t)(1 - t): the two t terms cancel
        got = (one + t) * (one - t)
        assert got._terms == {0: 1, 2: -1}
        assert all(type(k) is Fraction and type(c) is Fraction for k, c in got._terms.items())

    def test_rational_exponents(self):
        h = PuiseuxElement.t_power(Fraction(1, 2))
        assert h * h == t
        assert valuation(h) == TropValue(Fraction(1, 2))

    def test_valuation_rules(self):
        rng = random.Random(2)
        for _ in range(100):
            p, q = rand_puiseux(rng), rand_puiseux(rng)
            # domain: valuation is multiplicative
            assert valuation(p * q) == valuation(p) + valuation(q)
            vs = valuation(p + q)
            assert vs >= min(valuation(p), valuation(q))

    def test_valuation_of_zero_is_infinite(self):
        assert valuation(zero).is_inf


class TestDeterminant:
    def test_matches_permutation_expansion(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_field_matrix(rng, n, n)
            assert det(m) == perm_det(m)

    def test_known_value(self):
        m = FieldMatrix([[one, t], [one, one + t]])
        assert det(m) == one + t - t  # = 1
        assert det(m) == one

    def test_capacity(self):
        with pytest.raises(CapacityError):
            det(FieldMatrix.identity(7))

    def test_shape(self):
        with pytest.raises(ShapeError):
            det(FieldMatrix([[one, zero]]))


class TestRank:
    def test_identity(self):
        assert rank_via_minors(FieldMatrix.identity(4)) == 4

    def test_dependent_rows(self):
        m = FieldMatrix([[one, t], [t, t * t]])  # row2 = t * row1
        assert rank_via_minors(m) == 1

    def test_zero_matrix(self):
        assert rank_via_minors(FieldMatrix([[zero, zero]])) == 0

    def test_capacity(self):
        with pytest.raises(CapacityError):
            rank_via_minors(FieldMatrix([[zero] * 9]))


class TestPlueckerValuations:
    def test_known_matrix(self):
        m = FieldMatrix([[one, t, zero], [zero, one, t]])
        mu = pluecker_valuations(m)
        assert mu.value((1, 2)) == TropValue(0)
        assert mu.value((1, 3)) == TropValue(1)
        assert mu.value((2, 3)) == TropValue(2)

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotARealizationError):
            pluecker_valuations(FieldMatrix([[one, one], [one, one]]))

    def test_wide_shape_required(self):
        with pytest.raises(NotARealizationError):
            pluecker_valuations(FieldMatrix([[one], [t]]))


class TestClassicalContainment:
    def test_identity_keeps_spans(self):
        u = FieldMatrix([[one, zero, zero]])
        v = FieldMatrix([[one, zero, zero], [zero, one, zero]])
        assert classical_containment(FieldMatrix.identity(3), u, v)

    def test_escaping_image_detected(self):
        u = FieldMatrix([[zero, zero, one]])
        v = FieldMatrix([[one, zero, zero]])
        assert not classical_containment(FieldMatrix.identity(3), u, v)

    def test_full_row_rank_required(self):
        u = FieldMatrix([[one, one], [one, one]])
        with pytest.raises(UsageError):
            classical_containment(FieldMatrix.identity(2), u, u)
