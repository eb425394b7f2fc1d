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
valuation is the least scaled exponent over N.  A memo, keyed by columns,
holds the minors of one matrix's bottom rows, maximal ones included.  The
containment kernel puts each image row A*u on top of V's rows, so V's minors
are expanded once per memo and shared by every image row; the witness check
keeps one memo per vertex for all its arrows and its Pluecker valuations.  A
matrix-vector product also runs on scaled integers and is converted back
once per output term.  The valuation of an element is its least exponent;
zero has valuation infinity.  FieldMatrix shares trop's matrix base with
TropMatrix and gives val(A)'s finite entries without building a TropValue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm, prod

from .errors import CapacityError, NotARealizationError, ShapeError, UsageError
from .matroid import ValuatedMatroid
from .trop import INF, TropValue, _Matrix

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
        if not self._terms.keys() - {0}:  # a constant equals its rational
            return hash(self._terms.get(0, 0))
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
class FieldMatrix(_Matrix):
    """Rectangular matrix of Puiseux elements."""

    __slots__ = ()
    _coerce = staticmethod(_coerce)
    _one, _zero = ONE, ZERO
    _layer, _sep = "field", ", "

    def _finite_entries(self):
        """val(A)'s finite entries: each nonzero entry's least exponent."""
        return [(i, j, min(x._terms)) for i, row in enumerate(self.rows, 1)
                for j, x in enumerate(row, 1) if x._terms]

    def matvec(self, v):
        v = tuple(_coerce(e) for e in v)
        if len(v) != self.n_cols:
            raise ShapeError("vector length mismatch")
        exp_scale, (flat, vec), (a_scale, v_scale) = _scaled([[x for row in self.rows for x in row], v])
        coeff_scale = a_scale * v_scale
        return tuple(
            PuiseuxElement({Fraction(e, exp_scale): Fraction(c, coeff_scale)
                            for e, c in image.items()})
            for image in _image(flat, self.n_cols, vec)
        )


def _check_cap(n_rows, n_cols):
    if min(n_rows, n_cols) > SIZE_CAP[0] or max(n_rows, n_cols) > SIZE_CAP[1]:
        raise CapacityError("matrix size cap is %dx%d" % SIZE_CAP)


def _scaled(rows):
    """Rows of Puiseux elements over lcm-scaled integers.

    Returns (N, scaled, scales).  N is the lcm of every exponent
    denominator in rows; scales[i] is the lcm of row i's coefficient
    denominators; scaled[i] is row i as a list of {int exponent: int
    coefficient} dicts, exponents times N and coefficients times
    scales[i]."""
    # reduce, not lcm(*...): unpacking a generator builds and resizes an
    # argument tuple on every call, which raised peak RSS over long runs
    exp_scale = reduce(lcm, (e.denominator for row in rows for x in row for e in x._terms), 1)
    scaled, scales = [], []
    for row in rows:
        row_scale = reduce(lcm, (c.denominator for x in row for c in x._terms.values()), 1)
        scales.append(row_scale)
        scaled.append([
            {e.numerator * (exp_scale // e.denominator):
             c.numerator * (row_scale // c.denominator) for e, c in x._terms.items()}
            for x in row
        ])
    return exp_scale, scaled, scales


def _image(flat, n_cols, vec):
    """A·u over scaled integers: one {int: int} map per row of A, without
    zero coefficients.  flat holds A's entries, n_cols per row of A, scaled
    by _scaled as one row, so that every entry of A·u has one coefficient
    scale; vec holds u's scaled entries."""
    out = []
    for i in range(0, len(flat), n_cols):
        acc = {}
        for x, y in zip(flat[i : i + n_cols], vec):
            if x and y:
                _mul_add(acc, x, y)
        out.append({e: c for e, c in acc.items() if c})
    return out


def _expand(rows, memo, cols):
    """Laplace expansion of the minor of the bottom len(cols) scaled rows on
    cols, along its top row.  The memo holds proper subminors, keyed by
    their columns; a key names the bottom rows, so matrices that share
    their bottom rows can share one memo.  A module function rather than a
    closure, so that the memo is freed by reference counting, not by the
    cycle collector."""
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


def _minors(rows, n_cols, memo=None):
    """(cols, minor) for each len(rows)-subset of columns in combinations
    order, where minor is the scaled maximal minor as _expand returns it,
    looked up in memo or expanded and stored there: rows must be all the
    rows its keys name.  memo defaults to a fresh one."""
    if memo is None:
        memo = {(): {0: 1}}
    for cols in combinations(range(n_cols), len(rows)):
        minor = memo.get(cols)
        if minor is None:
            minor = memo[cols] = _expand(rows, memo, cols)
        yield cols, minor


def _full_row_rank(rows, n_cols, memo=None) -> bool:
    """Some maximal minor of the scaled rows is nonzero; stops at the first
    one."""
    return any(minor for _, minor in _minors(rows, n_cols, memo))


def _check_rank(rows, memo, message):
    """The cap of the scaled rows, then UsageError(message) unless of full row rank."""
    _check_cap(len(rows), len(rows[0]))
    if not _full_row_rank(rows, len(rows[0]), memo):
        raise UsageError(message)


def det(m: FieldMatrix) -> PuiseuxElement:
    """Exact determinant by Laplace expansion (division-free)."""
    if m.n_rows != m.n_cols:
        raise ShapeError("determinant needs a square matrix")
    _check_cap(m.n_rows, m.n_cols)
    exp_scale, rows, scales = _scaled(m.rows)
    coeff_scale = prod(scales)
    minor = _expand(rows, {(): {0: 1}}, tuple(range(m.n_cols)))
    return PuiseuxElement({Fraction(e, exp_scale): Fraction(c, coeff_scale)
                           for e, c in minor.items()})


def rank_via_minors(m: FieldMatrix) -> int:
    """Size of the largest nonzero minor: m is scaled once, and each row
    subset is expanded with its own memo."""
    _check_cap(m.n_rows, m.n_cols)
    _, rows, _ = _scaled(m.rows)
    for k in range(min(m.n_rows, m.n_cols), 0, -1):
        for sub in combinations(rows, k):
            if _full_row_rank(sub, m.n_cols):
                return k
    return 0


def pluecker_valuations(m: FieldMatrix):
    """Valuated matroid of the row span: subset I of columns maps to the
    valuation of the corresponding maximal minor.  Requires full row rank."""
    exp_scale, rows, _ = _scaled(m.rows)
    return _valuations(rows, m.n_cols, exp_scale)


def _valuations(rows, n_cols, exp_scale, memo=None):
    """pluecker_valuations of rows scaled with exponent scale N: a minor's
    valuation is its least exponent over N.  Its maximal minors come from
    memo, or are expanded there (_minors)."""
    if len(rows) > n_cols:
        raise NotARealizationError("more rows than columns")
    _check_cap(len(rows), n_cols)
    values = {tuple(c + 1 for c in cols): Fraction(min(minor), exp_scale)
              for cols, minor in _minors(rows, n_cols, memo) if minor}
    if not values:
        raise NotARealizationError("matrix is not of full row rank")
    return ValuatedMatroid(n_cols, len(rows), values)


def classical_containment(a: FieldMatrix, u: FieldMatrix, v: FieldMatrix) -> bool:
    """Is A * rowspan(U) contained in rowspan(V)?  U and V must have full
    row rank; A*u is in rowspan(V) iff [A*u; V] lacks full row rank.

    A, U and V are scaled once (_scaled_system) and handed to _contained."""
    if a.n_cols != u.n_cols:
        raise ShapeError("A has %d columns, U vectors have length %d"
                         % (a.n_cols, u.n_cols))
    if a.n_rows != v.n_cols:
        raise ShapeError("A maps into length %d, V vectors have length %d"
                         % (a.n_rows, v.n_cols))
    _, (flat,), (u_scaled, v_scaled) = _scaled_system([a], [u, v])
    return _contained(flat, *u_scaled, *v_scaled)


def _scaled_system(maps, matrices):
    """Field matrices scaled once with one exponent scale N: each of maps
    flat in one row, for _image, and each of matrices as its rows with a
    fresh minor memo.  Returns (N, flats, [(rows, memo)])."""
    exp_scale, rows, _ = _scaled([[x for row in a.rows for x in row] for a in maps]
                                 + [row for m in matrices for row in m.rows])
    flats, rows, scaled = rows[: len(maps)], rows[len(maps) :], []
    for m in matrices:
        scaled.append((rows[: m.n_rows], {(): {0: 1}}))
        rows = rows[m.n_rows :]
    return exp_scale, flats, scaled


def _contained(flat, u_rows, u_memo, v_rows, v_memo):
    """classical_containment on a _scaled_system: A flat, U and V with
    their memos (one memo if U is V).  Each image row goes on top of V's
    rows and the (s+1)-minors are expanded along it with V's memo, whose
    keys of at most s = len(v_rows) columns name V's bottom rows either way,
    so V's minors are expanded once per memo and each (s+1)-minor costs s+1
    products.  The checks run in this order: the cap of U, U's rank, the
    cap of V, V's rank, the cap of the stacked (s+1) x n shape."""
    n_u, n_v = len(u_rows[0]), len(v_rows[0])
    _check_rank(u_rows, u_memo, "U and V must have full row rank")
    _check_rank(v_rows, v_memo, "U and V must have full row rank")
    _check_cap(len(v_rows) + 1, n_v)
    for row in u_rows:
        stacked = [_image(flat, n_u, row)] + v_rows
        if any(_expand(stacked, v_memo, cols) for cols in combinations(range(n_v), len(stacked))):
            return False
    return True
