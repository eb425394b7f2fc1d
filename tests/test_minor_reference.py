"""The shared maximal-minor expansion against the routines it replaced.

``reference_det``, ``reference_rank``, ``reference_pluecker`` and
``reference_containment`` are the former ``det``, ``rank_via_minors``,
``pluecker_valuations`` and ``classical_containment``: a fresh memo per
determinant, a determinant per row and column subset, a rank pass before the
Pluecker minors, and a rank comparison per stacked image, under two caps.
They are kept verbatim, apart from ``columns`` standing in for the deleted
``FieldMatrix.columns``; so is ``reference_matvec``, the former
``FieldMatrix.matvec``.  The library must return equal results, or raise
the same exception class, on every input.
"""

import random
from fractions import Fraction
from itertools import combinations

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    ValuatedMatroid,
    classical_containment,
    det,
    pluecker_valuations,
    rank_via_minors,
)
from tropquiver.errors import CapacityError, NotARealizationError, ShapeError, UsageError
from tropquiver.puiseux import ONE, ZERO, valuation

from helpers import rand_puiseux

DET_CAP = 6
RANK_CAP = (6, 8)


def columns(m, cols):
    return FieldMatrix(tuple(tuple(r[j] for j in cols) for r in m.rows))


def reference_det(m):
    if m.n_rows != m.n_cols:
        raise ShapeError("determinant needs a square matrix")
    if m.n_rows > DET_CAP:
        raise CapacityError("determinant size cap is %d" % DET_CAP)
    memo = {}

    def minor(row, cols):
        if not cols:
            return ONE
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = ZERO
        sign = 1
        for k, j in enumerate(cols):
            a = m.entry(row, j)
            if not a.is_zero:
                sub = minor(row + 1, cols[:k] + cols[k + 1 :])
                term = a * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, tuple(range(m.n_cols)))


def reference_rank(m):
    dims = (m.n_rows, m.n_cols)
    if min(dims) > min(RANK_CAP) or max(dims) > max(RANK_CAP):
        raise CapacityError("rank size cap is %dx%d" % RANK_CAP)
    for k in range(min(m.n_rows, m.n_cols), 0, -1):
        for rows in combinations(range(m.n_rows), k):
            sub = FieldMatrix(tuple(m.rows[i] for i in rows))
            for cols in combinations(range(m.n_cols), k):
                if not reference_det(columns(sub, cols)).is_zero:
                    return k
    return 0


def reference_pluecker(m):
    d, n = m.n_rows, m.n_cols
    if d > n:
        raise NotARealizationError("more rows than columns")
    if reference_rank(m) != d:
        raise NotARealizationError("matrix is not of full row rank")
    values = {}
    for cols in combinations(range(n), d):
        v = valuation(reference_det(columns(m, cols)))
        if v.is_finite:
            values[tuple(c + 1 for c in cols)] = v
    return ValuatedMatroid(n, d, values)


def reference_containment(a, u, v):
    if a.n_cols != u.n_cols:
        raise ShapeError("A has %d columns, U vectors have length %d"
                         % (a.n_cols, u.n_cols))
    if a.n_rows != v.n_cols:
        raise ShapeError("A maps into length %d, V vectors have length %d"
                         % (a.n_rows, v.n_cols))
    if reference_rank(u) != u.n_rows or reference_rank(v) != v.n_rows:
        raise UsageError("U and V must have full row rank")
    for row in u.rows:
        image = a.matvec(row)
        if reference_rank(v.stack_row(image)) != v.n_rows:
            return False
    return True


def outcome(f, *args):
    """("ok", result) or ("raise", exception class)."""
    try:
        return "ok", f(*args)
    except (CapacityError, NotARealizationError, ShapeError, UsageError) as exc:
        return "raise", type(exc)


def combine(rng, rows):
    """A Puiseux combination of the given rows."""
    out = [ZERO] * len(rows[0])
    for row in rows:
        c = rand_puiseux(rng, zero_prob=0.2, max_exp=1)
        out = [x + c * y for x, y in zip(out, row)]
    return out


def rand_matrix(rng, d, n):
    """A random d x n matrix; some get a zero row, a zero column or a row
    that is a combination of the others."""
    zero_prob = rng.choice([0.0, 0.25, 0.5])
    rows = [[rand_puiseux(rng, zero_prob) for _ in range(n)] for _ in range(d)]
    kind = rng.random()
    if kind < 0.15:
        rows[rng.randrange(d)] = [ZERO] * n
    elif kind < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = ZERO
    elif kind < 0.55 and d > 1:
        k = rng.randrange(d)
        others = [row for i, row in enumerate(rows) if i != k]
        rows[k] = combine(rng, rng.sample(others, rng.randint(1, len(others))))
    return FieldMatrix(rows)


# shapes with both dimensions within the cap, then shapes past it; the
# largest shape within it is drawn apart because the reference is slow on it
SHAPES = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (3, 5), (4, 4), (4, 6),
          (5, 3), (5, 5), (6, 6), (2, 8), (8, 2), (8, 6)]
OVER_CAP = [(7, 7), (6, 9), (9, 1), (1, 9), (7, 8), (9, 9), (7, 2)]


def test_rank_and_pluecker_match_reference():
    rng = random.Random(20240601)
    seen = set()
    for k in range(200):
        if k % 40 == 15:
            d, n = 6, 8
        else:
            d, n = rng.choice(OVER_CAP) if k % 10 == 0 else rng.choice(SHAPES)
        m = rand_matrix(rng, d, n)
        rank = outcome(rank_via_minors, m)
        assert rank == outcome(reference_rank, m), m
        mu = outcome(pluecker_valuations, m)
        assert mu == outcome(reference_pluecker, m), m
        seen.add(mu[1] if mu[0] == "raise" else "valuated")
        if rank[0] == "ok" and 0 < rank[1] < min(d, n):
            seen.add("rank deficient")
    assert seen == {CapacityError, NotARealizationError, "valuated", "rank deficient"}


def test_det_matches_reference():
    rng = random.Random(20240602)
    for k in range(150):
        d = rng.randint(1, 7)
        n = d if k % 5 else rng.randint(1, 7)
        m = rand_matrix(rng, d, n)
        assert outcome(det, m) == outcome(reference_det, m), m


def test_containment_matches_reference():
    rng = random.Random(20240603)
    verdicts = []
    for k in range(250):
        n_u, n_v = rng.randint(1, 5), rng.randint(1, 6)
        d, s = rng.randint(1, min(3, n_u + 1)), rng.randint(1, min(5, n_v + 1))
        if k % 25 == 0:
            s, n_v = rng.choice([(7, 8), (6, 9), (6, 7)])
        a = rand_matrix(rng, n_v, n_u)
        u = rand_matrix(rng, d, n_u)
        v = rand_matrix(rng, s, n_v)
        if rng.random() < 0.4:
            # plant the image of U inside V, so that containment can hold
            images = [a.matvec(row) for row in u.rows]
            rows = [combine(rng, images) for _ in range(min(d, s))]
            v = FieldMatrix(rows + [list(r) for r in v.rows[len(rows):]])
        if k % 20 == 1:
            a = rand_matrix(rng, n_v, n_u + 1)
        got = outcome(classical_containment, a, u, v)
        assert got == outcome(reference_containment, a, u, v), (a, u, v)
        verdicts.append(got[1])
    for expected in (True, False, UsageError, ShapeError, CapacityError):
        assert expected in verdicts


def test_fixed_cases_match_reference():
    one, t = PuiseuxElement.const(1), PuiseuxElement.t_power(1)
    cases = [
        FieldMatrix([[one]]),
        FieldMatrix([[ZERO]]),
        FieldMatrix([[ZERO] * 9]),
        FieldMatrix([[one]] * 9),
        FieldMatrix([[one, t], [t, t * t]]),
        FieldMatrix([[one], [t]]),
        FieldMatrix.identity(6),
        FieldMatrix.identity(7),
    ]
    for m in cases:
        assert outcome(rank_via_minors, m) == outcome(reference_rank, m), m
        assert outcome(pluecker_valuations, m) == outcome(reference_pluecker, m), m
    assert outcome(rank_via_minors, FieldMatrix([[one]] * 9)) == ("raise", CapacityError)


def reference_matvec(a, v):
    """The former ``FieldMatrix.matvec``: a ring-operation sum per row."""
    return tuple(sum((r[j] * v[j] for j in range(a.n_cols)), ZERO) for r in a.rows)


DENOMINATORS = [1, 2, 3, 5, 4, 9]


def rational_puiseux(rng, coeff_den, zero_prob=0.25):
    """Zero, or one or two terms with exponents such as -2/5, 1/2 or 4/3
    and coefficients over coeff_den."""
    if rng.random() < zero_prob:
        return ZERO
    return PuiseuxElement(
        {Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5])):
         Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), coeff_den)
         for _ in range(rng.randint(1, 2))}
    )


def rational_matrix(rng, d, n):
    """Exponents with mixed denominators, negative ones included; each row
    draws its coefficient denominators from its own pair."""
    rows = []
    for _ in range(d):
        dens = rng.sample(DENOMINATORS, 2)
        rows.append([rational_puiseux(rng, rng.choice(dens)) for _ in range(n)])
    return FieldMatrix(rows)


def test_rational_data_matches_reference_exactly():
    rng = random.Random(20240604)
    scaled = 0
    for k in range(200):
        d = rng.randint(1, 4)
        n = d if k % 3 else rng.randint(d, 6)
        m = rational_matrix(rng, d, n)
        if d == n:
            got = outcome(det, m)
            assert got == outcome(reference_det, m), m
            if got[1] != ZERO and any(
                e.denominator > 1 or c.denominator > 1 for e, c in got[1].terms()
            ):
                scaled += 1
        assert outcome(pluecker_valuations, m) == outcome(reference_pluecker, m), m
        assert outcome(rank_via_minors, m) == outcome(reference_rank, m), m
        v = [rational_puiseux(rng, rng.choice(DENOMINATORS)) for _ in range(n)]
        assert m.matvec(v) == reference_matvec(m, v), (m, v)
    assert scaled >= 50


def test_huge_exponent_and_zero_matrix_match_reference():
    big = 10 ** 999 + 7  # 1000 digits
    t = PuiseuxElement.t_power
    c = PuiseuxElement.monomial
    huge = FieldMatrix([
        [c(Fraction(1, 3), Fraction(big, 7)), t(Fraction(-1, 2)), ONE],
        [t(Fraction(2, 5)), c(Fraction(-5, 2), Fraction(-big, 3)) + ONE, t(1)],
        [c(Fraction(7, 4), Fraction(1, 9)), ZERO, c(3, Fraction(big))],
    ])
    got = det(huge)
    assert got == reference_det(huge)
    assert max(e for e, _ in got.terms()).numerator > big
    assert pluecker_valuations(huge) == reference_pluecker(huge)
    for d, n in [(1, 1), (3, 3), (2, 5)]:
        zero = FieldMatrix([[ZERO] * n for _ in range(d)])
        if d == n:
            assert det(zero) == reference_det(zero) == ZERO
        assert rank_via_minors(zero) == reference_rank(zero) == 0
        assert outcome(pluecker_valuations, zero) == ("raise", NotARealizationError)
