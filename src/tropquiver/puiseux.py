"""Exact arithmetic in finite Puiseux polynomials over the rationals.

An element is a finite sum of c * t**e with rational c and rational e.
All operations are ring operations (no division).  The maximal minors
behind determinants, ranks, Pluecker valuations and containment come from
one memoized Laplace expansion under one size cap, SIZE_CAP.  It runs on
integers: each matrix is scaled once, every exponent by the lcm N of all
exponent denominators and each row's coefficients by the lcm of that row's
denominators, so a minor is an {int: int} map equal to the true minor times
the product L of the row scales, with exponents times N.  A determinant is
converted back exactly (exponents over N, coefficients over L); a Pluecker
valuation is the least scaled exponent over N.  The valuation of an element
is its least exponent; zero has valuation infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

from .errors import CapacityError, NotARealizationError, ShapeError, UsageError
from .trop import INF, TropValue

SIZE_CAP = (6, 8)  # largest (smaller, larger) dimension whose minors are taken


def _mul_add(acc, p, q, sign=1):
    """acc += sign * p * q, for polynomials as {exponent: coefficient} maps
    (rational in PuiseuxElement, scaled integers in the minor expansion)."""
    for e1, c1 in p.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in q.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


@dataclass(frozen=True, init=False, repr=False, eq=False)
class PuiseuxElement:
    """Finite map exponent -> nonzero rational coefficient."""

    __slots__ = ("_terms",)
    _terms: dict

    def __init__(self, terms=()):
        clean = {}
        for e, c in dict(terms).items():
            e, c = Fraction(e), Fraction(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def const(cls, c):
        return cls({Fraction(0): Fraction(c)})

    @classmethod
    def monomial(cls, c, e):
        return cls({Fraction(e): Fraction(c)})

    @classmethod
    def t_power(cls, e):
        return cls.monomial(1, e)

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        return sorted(self._terms.items())

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PuiseuxElement(out)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxElement({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        out = {}
        _mul_add(out, self._terms, _coerce(other)._terms)
        return PuiseuxElement(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxElement.const(other)
        if not isinstance(other, PuiseuxElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("t^%s" % e if e != 1 else "t")
            else:
                parts.append("%s*t^%s" % (c, e) if e != 1 else "%s*t" % c)
        return " + ".join(parts)


def _coerce(x) -> PuiseuxElement:
    if isinstance(x, PuiseuxElement):
        return x
    if isinstance(x, (int, Fraction)):
        return PuiseuxElement.const(x)
    raise UsageError("cannot coerce %r to a Puiseux element" % (x,))


ZERO = PuiseuxElement()
ONE = PuiseuxElement.const(1)


def valuation(p: PuiseuxElement) -> TropValue:
    """Least exponent with nonzero coefficient; infinity for zero."""
    p = _coerce(p)
    if p.is_zero:
        return INF
    return TropValue(min(p._terms))


@dataclass(frozen=True, init=False, repr=False)
class FieldMatrix:
    """Rectangular matrix of Puiseux elements."""

    __slots__ = ("rows",)
    rows: tuple

    def __init__(self, rows):
        rows = tuple(tuple(_coerce(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise ShapeError("empty field matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged field matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.rows[0])

    def entry(self, i, j):
        return self.rows[i][j]

    def stack_row(self, row) -> "FieldMatrix":
        row = tuple(_coerce(e) for e in row)
        if len(row) != self.n_cols:
            raise ShapeError("row length mismatch")
        return FieldMatrix(self.rows + (row,))

    def matvec(self, v):
        v = tuple(_coerce(e) for e in v)
        if len(v) != self.n_cols:
            raise ShapeError("vector length mismatch")
        out = []
        for row in self.rows:
            acc = {}
            for a, x in zip(row, v):
                _mul_add(acc, a._terms, x._terms)
            out.append(PuiseuxElement(acc))
        return tuple(out)

    def __repr__(self):
        return "[" + "; ".join(", ".join(repr(e) for e in r) for r in self.rows) + "]"

    @classmethod
    def identity(cls, n):
        return cls(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )


def _check_cap(m: FieldMatrix):
    if min(m.n_rows, m.n_cols) > SIZE_CAP[0] or max(m.n_rows, m.n_cols) > SIZE_CAP[1]:
        raise CapacityError("matrix size cap is %dx%d" % SIZE_CAP)


def _expand(rows, memo, cols):
    """Laplace expansion of the minor of the bottom len(cols) scaled rows on
    cols, along its top row.  A module function rather than a closure, so
    that the memo is freed by reference counting, not by the cycle collector."""
    row = rows[len(rows) - len(cols)]
    acc = {}
    for k, j in enumerate(cols):
        if row[j]:
            rest = cols[:k] + cols[k + 1 :]
            sub = memo.get(rest)
            if sub is None:
                sub = memo[rest] = _expand(rows, memo, rest)
            _mul_add(acc, row[j], sub, -1 if k % 2 else 1)
    return {e: c for e, c in acc.items() if c}


def _maximal_minors(m: FieldMatrix):
    """Every maximal minor of m, by one Laplace expansion along the rows
    over lcm-scaled integers.

    Returns (N, L, minors).  N is the lcm of all exponent denominators and L
    the product over the rows of the lcm of that row's coefficient
    denominators, so every entry, scaled, is an {int exponent: int
    coefficient} dict.  minors yields (cols, minor) for each n_rows-subset
    of columns in combinations order, where minor is such a dict, without
    zero coefficients, equal to L times the true minor with its exponents
    times N.  Proper subminors (the bottom rows on some columns) are keyed
    by columns and computed once.  The size cap is checked before anything
    is scaled."""
    _check_cap(m)
    # reduce, not lcm(*...): unpacking a generator builds and resizes an
    # argument tuple on every call, which raised peak RSS over long runs
    exp_scale = reduce(lcm, (e.denominator for row in m.rows for x in row for e in x._terms), 1)
    rows, coeff_scale = [], 1
    for row in m.rows:
        row_scale = reduce(lcm, (c.denominator for x in row for c in x._terms.values()), 1)
        coeff_scale *= row_scale
        rows.append([
            {e.numerator * (exp_scale // e.denominator):
             c.numerator * (row_scale // c.denominator) for e, c in x._terms.items()}
            for x in row
        ])
    memo = {(): {0: 1}}
    minors = ((cols, _expand(rows, memo, cols))
              for cols in combinations(range(m.n_cols), len(rows)))
    return exp_scale, coeff_scale, minors


def _full_row_rank(m: FieldMatrix) -> bool:
    """Some maximal minor is nonzero; stops at the first one."""
    return any(minor for _, minor in _maximal_minors(m)[2])


def det(m: FieldMatrix) -> PuiseuxElement:
    """Exact determinant by Laplace expansion (division-free)."""
    if m.n_rows != m.n_cols:
        raise ShapeError("determinant needs a square matrix")
    exp_scale, coeff_scale, minors = _maximal_minors(m)
    _, minor = next(minors)
    return PuiseuxElement(
        {Fraction(e, exp_scale): Fraction(c, coeff_scale) for e, c in minor.items()}
    )


def rank_via_minors(m: FieldMatrix) -> int:
    """Size of the largest nonzero minor."""
    _check_cap(m)
    for k in range(min(m.n_rows, m.n_cols), 0, -1):
        for rows in combinations(m.rows, k):
            if _full_row_rank(FieldMatrix(rows)):
                return k
    return 0


def pluecker_valuations(m: FieldMatrix):
    """Valuated matroid of the row span: subset I of columns maps to the
    valuation of the corresponding maximal minor.  Requires full row rank."""
    from .matroid import ValuatedMatroid

    d, n = m.n_rows, m.n_cols
    if d > n:
        raise NotARealizationError("more rows than columns")
    exp_scale, _, minors = _maximal_minors(m)
    values = {
        tuple(c + 1 for c in cols): TropValue(Fraction(min(minor), exp_scale))
        for cols, minor in minors
        if minor
    }
    if not values:
        raise NotARealizationError("matrix is not of full row rank")
    return ValuatedMatroid(n, d, values)


def classical_containment(a: FieldMatrix, u: FieldMatrix, v: FieldMatrix) -> bool:
    """Is A * rowspan(U) contained in rowspan(V)?  U and V must have full
    row rank; A*u is in rowspan(V) iff [V; A*u] lacks full row rank."""
    if a.n_cols != u.n_cols:
        raise ShapeError("A has %d columns, U vectors have length %d"
                         % (a.n_cols, u.n_cols))
    if a.n_rows != v.n_cols:
        raise ShapeError("A maps into length %d, V vectors have length %d"
                         % (a.n_rows, v.n_cols))
    if not _full_row_rank(u) or not _full_row_rank(v):
        raise UsageError("U and V must have full row rank")
    return not any(_full_row_rank(v.stack_row(a.matvec(row))) for row in u.rows)
