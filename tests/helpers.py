"""Shared random generators for the test suite.

Everything is driven by a seeded random.Random instance so failures are
reproducible; all generated objects stay small enough for the exact
(brute-force) decision procedures.
"""

from fractions import Fraction

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    RepArrow,
    TropMatrix,
    TropValue,
    ValuatedMatroid,
    pluecker_valuations,
    valuation,
)
from tropquiver.morphism import associated_map
from tropquiver.puiseux import rank_via_minors


def rand_rational(rng, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2]))


def rand_puiseux(rng, zero_prob=0.25, max_exp=2):
    """A short random Puiseux polynomial with small rational data."""
    if rng.random() < zero_prob:
        return PuiseuxElement()
    terms = {}
    for e in range(rng.randint(1, 2)):
        exp = Fraction(rng.randint(0, max_exp))
        coeff = Fraction(rng.randint(-3, 3))
        if coeff:
            terms[exp] = coeff
    return PuiseuxElement(terms)


def rand_field_matrix(rng, rows, cols, zero_prob=0.25):
    return FieldMatrix(
        [[rand_puiseux(rng, zero_prob) for _ in range(cols)] for _ in range(rows)]
    )


def rand_realization(rng, d, n, tries=50):
    """A random full-row-rank d x n matrix and its valuated matroid."""
    for _ in range(tries):
        m = rand_field_matrix(rng, d, n)
        if rank_via_minors(m) == d:
            return m, pluecker_valuations(m)
    raise RuntimeError("failed to sample a full-rank %dx%d matrix" % (d, n))


def rand_weakly_monomial(rng, n, zero_row_prob=0.2):
    """A random square weakly monomial matrix and its associated map."""
    rows = []
    for _ in range(n):
        row = [PuiseuxElement()] * n
        if rng.random() >= zero_row_prob:
            j = rng.randrange(n)
            coeff = Fraction(rng.choice([-2, -1, 1, 2, 3]))
            exp = Fraction(rng.randint(0, 3))
            row[j] = PuiseuxElement.monomial(coeff, exp)
        rows.append(row)
    a = FieldMatrix(rows)
    return a, associated_map(a)


def rand_trop_value(rng, inf_prob=0.25):
    if rng.random() < inf_prob:
        return TropValue(None)
    return TropValue(rand_rational(rng))


def rank1_matroid(n, values):
    """Rank-1 matroid on [n] from a coordinate list; None means infinity."""
    table = {(i,): v for i, v in enumerate(values, start=1) if v is not None}
    return ValuatedMatroid(n, 1, table)


def rand_sparse_puiseux(rng, density):
    """Zero, or one or two terms with small coefficients of either sign, so
    that colliding monomials often cancel classically."""
    if rng.random() >= density:
        return PuiseuxElement()
    return PuiseuxElement(
        {Fraction(rng.randint(0, 2), rng.choice([1, 2])): rng.choice([-2, -1, 1, 1, 2])
         for _ in range(rng.randint(1, 2))}
    )


def rand_arrow(rng, n, src, dst):
    """A field arrow (sometimes with its tropical layer too) or a tropical
    arrow, with density from all-zero to full."""
    density = rng.choice([0.0, 0.15, 0.35, 0.7, 1.0])
    if rng.random() < 0.5:
        field = FieldMatrix(
            [[rand_sparse_puiseux(rng, density) for _ in range(n)] for _ in range(n)]
        )
        trop = None
        if rng.random() < 0.3:
            trop = TropMatrix([[valuation(e) for e in row] for row in field.rows])
        return RepArrow(src, dst, field=field, trop=trop)
    trop = TropMatrix(
        [[rand_trop_value(rng, inf_prob=1 - density) for _ in range(n)] for _ in range(n)]
    )
    return RepArrow(src, dst, trop=trop)


def rand_scaled_exponent(rng):
    """An exponent or tropical value with denominator 1, 2 or 3."""
    return Fraction(rng.randint(-3, 4), rng.choice([1, 2, 3]))


def rand_scaled_field_matrix(rng, n, density):
    """An n x n field matrix whose entries are nonzero with probability
    density: each row draws its coefficients over its own denominator (1, 2,
    3 or 5), and exponents come from rand_scaled_exponent."""
    rows = []
    for _ in range(n):
        den = rng.choice([1, 2, 3, 5])
        rows.append([
            PuiseuxElement({rand_scaled_exponent(rng):
                            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)
                            for _ in range(rng.randint(1, 2))})
            if rng.random() < density else PuiseuxElement()
            for _ in range(n)
        ])
    return FieldMatrix(rows)


def rand_scaled_arrow(rng, n, src, dst):
    """A field arrow (sometimes with its tropical layer too) as
    rand_scaled_field_matrix draws it, or a tropical arrow whose values come
    from rand_scaled_exponent."""
    density = rng.choice([0.35, 0.7, 1.0])
    if rng.random() < 0.5:
        field = rand_scaled_field_matrix(rng, n, density)
        trop = None
        if rng.random() < 0.3:
            trop = TropMatrix([[valuation(e) for e in row] for row in field.rows])
        return RepArrow(src, dst, field=field, trop=trop)
    trop = TropMatrix(
        [[TropValue(rand_scaled_exponent(rng)) if rng.random() < density else TropValue(None)
          for _ in range(n)] for _ in range(n)]
    )
    return RepArrow(src, dst, trop=trop)
