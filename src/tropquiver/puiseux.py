"""Exact arithmetic in finite Puiseux polynomials over the rationals.

An element is a finite sum of c * t**e with rational c and rational e.
All operations are ring operations (no division), so the maximal minors
behind determinants, ranks, Pluecker valuations and containment stay inside
the class: one memoized Laplace expansion computes them under one size cap.
The valuation of an element is its least exponent; zero has valuation
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapacityError, NotARealizationError, ShapeError, UsageError
from .trop import INF, TropValue

SIZE_CAP = (6, 8)  # largest (smaller, larger) dimension whose minors are taken


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


def _check_cap(m: FieldMatrix):
    if min(m.n_rows, m.n_cols) > SIZE_CAP[0] or max(m.n_rows, m.n_cols) > SIZE_CAP[1]:
        raise CapacityError("matrix size cap is %dx%d" % SIZE_CAP)


def _maximal_minors(m: FieldMatrix):
    """Yield (cols, minor) for each n_rows-subset of columns, in combinations
    order, by one Laplace expansion along the rows whose proper subminors
    (the bottom rows on some columns) are keyed by columns and computed once."""
    _check_cap(m)
    d = m.n_rows
    memo = {(): ONE}

    def expand(cols):
        row = m.rows[d - len(cols)]
        acc = ZERO
        for k, j in enumerate(cols):
            if not row[j].is_zero:
                rest = cols[:k] + cols[k + 1 :]
                sub = memo.get(rest)
                if sub is None:
                    sub = memo[rest] = expand(rest)
                term = row[j] * sub
                acc = acc + term if k % 2 == 0 else acc - term
        return acc

    for cols in combinations(range(m.n_cols), d):
        yield cols, expand(cols)


def _full_row_rank(m: FieldMatrix) -> bool:
    """Some maximal minor is nonzero; stops at the first one."""
    return any(not minor.is_zero for _, minor in _maximal_minors(m))


def det(m: FieldMatrix) -> PuiseuxElement:
    """Exact determinant by Laplace expansion (division-free)."""
    if m.n_rows != m.n_cols:
        raise ShapeError("determinant needs a square matrix")
    return next(_maximal_minors(m))[1]


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
    values = {
        tuple(c + 1 for c in cols): valuation(minor)
        for cols, minor in _maximal_minors(m)
        if not minor.is_zero
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
