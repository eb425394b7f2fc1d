"""Exact arithmetic in finite Puiseux polynomials over the rationals.

An element is a finite sum of c * t**e with rational c and rational e;
operations are ring operations (no division).  Its valuation is its least
exponent, infinity for zero.  A FieldMatrix is stored once, over ints:
exponents times the lcm N of its exponent denominators, coefficients times
one lcm L of its coefficient denominators.  Its rows and entries are views
converted back by _unscaled; it shares trop's matrix base with TropMatrix.
Exact minors come from one memoized Laplace expansion of those ints,
_expand, under one size cap, SIZE_CAP: a k x k minor is an {int: int} map,
the true minor times L**k with exponents times N, on one N for matrices
read together.  A memo keyed by columns holds the minors of one matrix's
bottom rows; the witness check keeps one per vertex.  A rank check returns
the pivot columns K of the first nonzero maximal minor, so A*u lies in
rowspan(V) iff the n - s minors of [A*u; V] on K and one more column
vanish.  A Pluecker valuation, a least exponent over N, is read from the
memo or from the minor's initial form (_initial, on leading terms), whose
tropical determinant it is unless the leading terms cancel; then the minor
is expanded exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm

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
        out = dict(self._terms)
        for e, c in _coerce(other)._terms.items():
            out[e] = out.get(e, 0) + c
        return _element({e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return _element({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        out = {}
        _mul_add(out, self._terms, _coerce(other)._terms)
        return _element({e: c for e, c in out.items() if c})

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


def _element(terms):
    """The Puiseux element of a {Fraction: nonzero Fraction} map, uncopied."""
    p = object.__new__(PuiseuxElement)
    object.__setattr__(p, "_terms", terms)
    return p


def _unscaled(terms, exp_scale, coeff_scale):
    """The Puiseux element of int (exponent, coefficient) terms, none zero:
    exponents over exp_scale, coefficients over coeff_scale (a scale of 1
    passed as None, Fraction's faster path for ints), without coercion."""
    den_e = exp_scale if exp_scale > 1 else None
    den_c = coeff_scale if coeff_scale > 1 else None
    return _element({Fraction(e, den_e): Fraction(c, den_c) for e, c in terms})


@dataclass(frozen=True, init=False, repr=False)
class FieldMatrix(_Matrix):
    """Rectangular matrix of Puiseux elements, stored only as _at, its rows
    of {exponent * N: coefficient * L} maps, N = _scale and L = _coeff."""

    __slots__ = ("_scale", "_coeff", "_at")
    _scale: int
    _coeff: int
    _at: tuple
    _coerce = staticmethod(_coerce)
    _one, _zero = ONE, ZERO
    _layer, _sep = "field", ", "

    def _store(self, rows):
        terms = [x._terms for row in rows for x in row]
        # reduce, not lcm(*...): unpacking a generator builds and resizes an
        # argument tuple on every call, which raised peak RSS over long runs
        scale = reduce(lcm, {e.denominator for t in terms for e in t}, 1)
        coeff = reduce(lcm, {c.denominator for t in terms for c in t.values()}, 1)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_coeff", coeff)
        object.__setattr__(self, "_at", tuple(tuple(
            {e.numerator * (scale // e.denominator): c.numerator * (coeff // c.denominator)
             for e, c in x._terms.items()} for x in row) for row in rows))

    @property
    def rows(self):
        return tuple(tuple(_unscaled(x.items(), self._scale, self._coeff) for x in row)
                     for row in self._at)

    def entry(self, i, j):
        return _unscaled(self._at[i][j].items(), self._scale, self._coeff)

    n_rows = property(lambda self: len(self._at))
    n_cols = property(lambda self: len(self._at[0]))

    def __hash__(self):
        return hash(tuple(tuple(frozenset(x.items()) for x in row) for row in self._at))

    def _finite_entries(self):
        """val(A)'s finite entries: each nonzero entry's least exponent."""
        return [(i, j, Fraction(min(x), self._scale)) for i, row in enumerate(self._at, 1)
                for j, x in enumerate(row, 1) if x]

    def _val_is_identity(self):
        """Is val(A) the identity?  Read on the stored ints: the diagonal
        entries are nonzero with least exponent 0, the others zero."""
        return len(self._at) == len(self._at[0]) and all(
            bool(x) and min(x) == 0 if i == j else not x
            for i, row in enumerate(self._at) for j, x in enumerate(row))

    def matvec(self, v):
        v = FieldMatrix([v])
        if v.n_cols != self.n_cols:
            raise ShapeError("vector length mismatch")
        exp_scale, (a_rows, (vec,)) = _scaled_system([self, v])
        return tuple(_unscaled(image.items(), exp_scale, self._coeff * v._coeff)
                     for image in _image(a_rows, vec))


def _check_cap(n_rows, n_cols):
    if min(n_rows, n_cols) > SIZE_CAP[0] or max(n_rows, n_cols) > SIZE_CAP[1]:
        raise CapacityError("matrix size cap is %dx%d" % SIZE_CAP)


def _image(a_rows, vec):
    """A·u over scaled integers: one {int: int} map per row of A, without
    zero coefficients, from A's rows and u's entries on one exponent scale
    (_scaled_system); its coefficients are scaled by A's L times u's."""
    out = []
    for a_row in a_rows:
        acc = {}
        for x, y in zip(a_row, vec):
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


def _pivot(rows, n_cols, memo=None):
    """The columns of the scaled rows' first nonzero maximal minor, or None
    if they lack full row rank; stops at that minor."""
    return next((cols for cols, minor in _minors(rows, n_cols, memo) if minor), None)


def _check_rank(rows, memo, message):
    """The cap of the scaled rows, then UsageError(message) unless of full
    row rank.  Returns their pivot columns K (_pivot), which are independent."""
    _check_cap(len(rows), len(rows[0]))
    pivot = _pivot(rows, len(rows[0]), memo)
    if pivot is None:
        raise UsageError(message)
    return pivot


def det(m: FieldMatrix) -> PuiseuxElement:
    """Exact determinant by Laplace expansion (division-free)."""
    if m.n_rows != m.n_cols:
        raise ShapeError("determinant needs a square matrix")
    _check_cap(m.n_rows, m.n_cols)
    minor = _expand(m._at, {(): {0: 1}}, tuple(range(m.n_cols)))
    return _unscaled(minor.items(), m._scale, m._coeff ** m.n_rows)


def rank_via_minors(m: FieldMatrix) -> int:
    """Size of the largest nonzero minor; each row subset has its own memo."""
    _check_cap(m.n_rows, m.n_cols)
    for k in range(min(m.n_rows, m.n_cols), 0, -1):
        for sub in combinations(m._at, k):
            if _pivot(sub, m.n_cols) is not None:
                return k
    return 0


def pluecker_valuations(m: FieldMatrix):
    """Valuated matroid of the row span: subset I of columns maps to the
    valuation of the corresponding maximal minor.  Requires full row rank."""
    return _valuations(m._at, m.n_cols, m._scale, {(): {0: 1}})


def _valuations(rows, n_cols, exp_scale, memo):
    """pluecker_valuations of rows scaled with exponent scale N: a minor's
    valuation is its least exponent over N.  A maximal minor is read from
    memo if it is there.  Otherwise its initial form (L, c) is taken
    (_initial): the minor has no exponent below L and its coefficient at L
    is c, so its valuation is L/N if c != 0.  If the leading terms cancel
    (c = 0), the minor is expanded exactly and kept in memo (_expand)."""
    if len(rows) > n_cols:
        raise NotARealizationError("more rows than columns")
    _check_cap(len(rows), n_cols)
    lead = [[min(x.items()) if x else None for x in row] for row in rows]
    initial = {(): (0, 1)}
    values = {}
    for cols in combinations(range(n_cols), len(rows)):
        minor = memo.get(cols)
        if minor is None:
            form = _initial(lead, initial, cols)
            if form is None:
                continue
            if form[1]:
                values[tuple(c + 1 for c in cols)] = Fraction(form[0], exp_scale)
                continue
            minor = memo[cols] = _expand(rows, memo, cols)
        if minor:
            values[tuple(c + 1 for c in cols)] = Fraction(min(minor), exp_scale)
    if not values:
        raise NotARealizationError("matrix is not of full row rank")
    return ValuatedMatroid(n_cols, len(rows), values)


def _initial(lead, memo, cols):
    """The initial form (L, c) of the minor on cols of the bottom len(cols)
    rows of lead, their entries' leading terms (least scaled exponent, its
    coefficient) or None for zero; the memo is keyed as _expand's.  L is the
    tropical determinant, by the min-plus Laplace step, and c, the minor's
    coefficient at L, sums the signed leading-coefficient products of the
    terms that attain L.  None if every term contains a zero entry."""
    row = lead[len(lead) - len(cols)]
    low = coeff = None
    for k, j in enumerate(cols):
        if row[j]:
            rest = cols[:k] + cols[k + 1 :]
            if rest not in memo:
                memo[rest] = _initial(lead, memo, rest)
            sub = memo[rest]
            if sub is not None:
                e = row[j][0] + sub[0]
                term = row[j][1] * sub[1] if k % 2 == 0 else -row[j][1] * sub[1]
                if low is None or e < low:
                    low, coeff = e, term
                elif e == low:
                    coeff += term
    return None if low is None else (low, coeff)


def classical_containment(a: FieldMatrix, u: FieldMatrix, v: FieldMatrix) -> bool:
    """Is A * rowspan(U) contained in rowspan(V)?  U and V must have full
    row rank; A*u is in rowspan(V) iff [A*u; V] lacks full row rank
    (_contained, on A, U and V moved to one exponent scale)."""
    if a.n_cols != u.n_cols:
        raise ShapeError("A has %d columns, U vectors have length %d"
                         % (a.n_cols, u.n_cols))
    if a.n_rows != v.n_cols:
        raise ShapeError("A maps into length %d, V vectors have length %d"
                         % (a.n_rows, v.n_cols))
    _, (a_rows, u_rows, v_rows) = _scaled_system([a, u, v])
    return _contained(a_rows, u_rows, {(): {0: 1}}, v_rows, {(): {0: 1}})


def _scaled_system(matrices):
    """The stored rows of field matrices with their exponents moved to one
    scale N, the lcm of their own.  Returns (N, [rows])."""
    exp_scale = reduce(lcm, (m._scale for m in matrices), 1)
    return exp_scale, [m._at if m._scale == exp_scale else
                       tuple(tuple({e * (exp_scale // m._scale): c for e, c in x.items()}
                                   for x in row) for row in m._at) for m in matrices]


def _contained(a_rows, u_rows, u_memo, v_rows, v_memo):
    """classical_containment on a _scaled_system: A's rows, U and V with
    their minor memos (one memo if U is V).  V's pivot columns K
    (_check_rank) are independent in [A*u; V], so A*u lies in rowspan(V) iff
    its (s+1)-minors on K + {j} vanish for the n - s columns j not in K,
    s = len(v_rows).  Each is expanded along the image row with V's memo,
    whose keys of at most s columns name V's bottom rows either way, so V's
    minors are expanded once per memo.  The checks run in this order: the
    cap of U, U's rank, the cap of V, V's rank, the cap of the stacked shape."""
    n_v = len(v_rows[0])
    _check_rank(u_rows, u_memo, "U and V must have full row rank")
    pivot = _check_rank(v_rows, v_memo, "U and V must have full row rank")
    _check_cap(len(v_rows) + 1, n_v)
    stacked_cols = [tuple(sorted(pivot + (j,))) for j in range(n_v) if j not in pivot]
    for row in u_rows:
        stacked = (_image(a_rows, row),) + v_rows
        if any(_expand(stacked, v_memo, cols) for cols in stacked_cols):
            return False
    return True
