"""Exact arithmetic in finite Puiseux polynomials over the rationals.

An element is a finite sum of c * t**e with rational c and rational e.
All operations are ring operations (no division), so determinants and
ranks stay inside the class.  The valuation of an element is its least
exponent; zero has valuation infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapacityError, NotARealizationError, ShapeError, UsageError
from .trop import INF, TropValue

DET_CAP = 6
RANK_CAP = (6, 8)


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
        other = _coerce(other)
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
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

    def columns(self, cols) -> "FieldMatrix":
        return FieldMatrix(tuple(tuple(r[j] for j in cols) for r in self.rows))

    def stack_row(self, row) -> "FieldMatrix":
        row = tuple(_coerce(e) for e in row)
        if len(row) != self.n_cols:
            raise ShapeError("row length mismatch")
        return FieldMatrix(self.rows + (row,))

    def matvec(self, v):
        v = tuple(_coerce(e) for e in v)
        if len(v) != self.n_cols:
            raise ShapeError("vector length mismatch")
        return tuple(
            sum((r[j] * v[j] for j in range(self.n_cols)), ZERO) for r in self.rows
        )

    def __repr__(self):
        return "[" + "; ".join(", ".join(repr(e) for e in r) for r in self.rows) + "]"

    @classmethod
    def identity(cls, n):
        return cls(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        )


def det(m: FieldMatrix) -> PuiseuxElement:
    """Exact determinant by Laplace expansion (division-free)."""
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


def rank_via_minors(m: FieldMatrix) -> int:
    """Size of the largest nonzero minor."""
    dims = (m.n_rows, m.n_cols)
    if min(dims) > min(RANK_CAP) or max(dims) > max(RANK_CAP):
        raise CapacityError("rank size cap is %dx%d" % RANK_CAP)
    for k in range(min(m.n_rows, m.n_cols), 0, -1):
        for rows in combinations(range(m.n_rows), k):
            sub = FieldMatrix(tuple(m.rows[i] for i in rows))
            for cols in combinations(range(m.n_cols), k):
                if not det(sub.columns(cols)).is_zero:
                    return k
    return 0


def pluecker_valuations(m: FieldMatrix):
    """Valuated matroid of the row span: subset I of columns maps to the
    valuation of the corresponding maximal minor.  Requires full row rank."""
    from .matroid import ValuatedMatroid

    d, n = m.n_rows, m.n_cols
    if d > n:
        raise NotARealizationError("more rows than columns")
    if rank_via_minors(m) != d:
        raise NotARealizationError("matrix is not of full row rank")
    values = {}
    for cols in combinations(range(n), d):
        v = valuation(det(m.columns(cols)))
        if v.is_finite:
            values[tuple(c + 1 for c in cols)] = v
    return ValuatedMatroid(n, d, values)


def classical_containment(a: FieldMatrix, u: FieldMatrix, v: FieldMatrix) -> bool:
    """Is A * rowspan(U) contained in rowspan(V)?  U and V must have full
    row rank; decided by rank comparisons of stacked matrices."""
    if a.n_cols != u.n_cols:
        raise ShapeError("A has %d columns, U vectors have length %d"
                         % (a.n_cols, u.n_cols))
    if a.n_rows != v.n_cols:
        raise ShapeError("A maps into length %d, V vectors have length %d"
                         % (a.n_rows, v.n_cols))
    if rank_via_minors(u) != u.n_rows or rank_via_minors(v) != v.n_rows:
        raise UsageError("U and V must have full row rank")
    for row in u.rows:
        image = a.matvec(row)
        if rank_via_minors(v.stack_row(image)) != v.n_rows:
            return False
    return True
