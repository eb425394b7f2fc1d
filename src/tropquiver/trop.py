"""Exact min-plus semiring arithmetic.

Values are arbitrary-precision rationals or the absorbing element infinity;
no floating point anywhere.  Tropical addition is ``min`` (via the total
order in which infinity is the largest element) and tropical multiplication
is classical addition, written with Python's ``+``.  TropMatrix and
puiseux.FieldMatrix share one matrix base, _Matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DegeneratePointError, ShapeError, UsageError


@dataclass(frozen=True, init=False, repr=False, eq=False)
class TropValue:
    """A tropical number: an exact rational, or infinity (``value is None``)."""

    __slots__ = ("value",)
    value: Optional[Fraction]

    def __init__(self, value=None):
        if value is None:
            object.__setattr__(self, "value", None)
        elif isinstance(value, TropValue):
            object.__setattr__(self, "value", value.value)
        elif isinstance(value, float):
            raise UsageError("floating point is not allowed in tropical values")
        else:
            object.__setattr__(self, "value", Fraction(value))

    @property
    def is_inf(self):
        return self.value is None

    @property
    def is_finite(self):
        return self.value is not None

    def __add__(self, other):
        """Tropical product: classical addition, with infinity absorbing."""
        other = _coerce(other)
        if self.value is None or other.value is None:
            return INF
        return TropValue(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        """Classical difference of two finite values (used in residuation)."""
        other = _coerce(other)
        if self.value is None or other.value is None:
            raise UsageError("cannot subtract with infinite tropical values")
        return TropValue(self.value - other.value)

    def __eq__(self, other):
        if not isinstance(other, (TropValue, int, Fraction)):
            return NotImplemented
        return self.value == _coerce(other).value

    def __lt__(self, other):
        other = _coerce(other)
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __le__(self, other):
        other = _coerce(other)
        return self == other or self < other

    def __gt__(self, other):
        return _coerce(other) < self

    def __ge__(self, other):
        return _coerce(other) <= self

    def __hash__(self):
        # equal to its rational, so hashed like it
        return hash(self.value)

    def __repr__(self):
        return "inf" if self.value is None else str(self.value)


def _coerce(x) -> TropValue:
    return x if isinstance(x, TropValue) else TropValue(x)


INF = TropValue(None)
ZERO = TropValue(0)  # multiplicative identity


def trop_sum(values: Iterable[TropValue]) -> TropValue:
    """Tropical sum (minimum) of an iterable; infinity if empty."""
    best = INF
    for v in values:
        if v < best:
            best = v
    return best


def min_attained_twice(terms) -> bool:
    """True iff the minimum of the terms is infinite, or is attained at
    two or more positions.  An infinite minimum counts as attained twice
    even for a single term."""
    terms = list(terms)
    if not terms:
        raise UsageError("min_attained_twice needs at least one term")
    m = trop_sum(terms)
    if m.is_inf:
        return True
    return sum(1 for t in terms if t == m) >= 2


@dataclass(frozen=True, init=False, repr=False)
class TropVector:
    """Fixed-length tuple of tropical values."""

    __slots__ = ("entries",)
    entries: tuple

    def __init__(self, entries):
        entries = tuple(_coerce(e) for e in entries)
        if not entries:
            raise ShapeError("empty tropical vector")
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return "(" + ", ".join(repr(e) for e in self.entries) + ")"

    @property
    def is_all_inf(self):
        return all(e.is_inf for e in self.entries)

    def scale(self, c: TropValue) -> "TropVector":
        """Tropical scalar multiple: add c to every entry."""
        c = _coerce(c)
        return TropVector(tuple(c + e for e in self.entries))

    def oplus(self, other: "TropVector") -> "TropVector":
        """Pointwise tropical sum (minimum)."""
        if len(self) != len(other):
            raise ShapeError("vector length mismatch")
        return TropVector(tuple(trop_sum((a, b)) for a, b in zip(self, other)))


def projective_normalize(v: TropVector) -> TropVector:
    """Canonical representative of a projective point: shift all finite
    entries so the minimum finite entry is 0.  Idempotent."""
    m = trop_sum(v)
    if m.is_inf:
        raise DegeneratePointError("all-infinite vector has no projective class")
    return TropVector(tuple(e if e.is_inf else e - m for e in v))


def projectively_equal(v: TropVector, w: TropVector) -> bool:
    if len(v) != len(w):
        raise ShapeError("vector length mismatch")
    if v.is_all_inf or w.is_all_inf:
        return v.is_all_inf and w.is_all_inf
    return projective_normalize(v) == projective_normalize(w)


@dataclass(frozen=True, init=False, repr=False)
class _Matrix:
    """Nonempty rectangular grid.  A subclass gives its entry coercion, one
    and zero, layer name and repr separator, _store(rows), which keeps the
    checked rows, and _finite_entries: val(A)'s finite entries as 1-based
    (i, j, rational) triples, read by matroid's walk from either layer."""

    __slots__ = ()

    def __init__(self, rows):
        coerce = self._coerce
        rows = tuple(tuple(map(coerce, row)) for row in rows)
        if not rows or not rows[0]:
            raise ShapeError("empty %s matrix" % self._layer)
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ShapeError("ragged %s matrix" % self._layer)
        self._store(rows)

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.rows[0])

    def entry(self, i, j):
        """Entry in row i, column j (0-based)."""
        return self.rows[i][j]

    def __repr__(self):
        return "[" + "; ".join(self._sep.join(repr(e) for e in r) for r in self.rows) + "]"

    @classmethod
    def identity(cls, n):
        one, zero = cls._one, cls._zero
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))


@dataclass(frozen=True, init=False, repr=False)
class TropMatrix(_Matrix):
    """Rectangular grid of tropical values."""

    __slots__ = ("rows",)
    rows: tuple
    _coerce = staticmethod(_coerce)
    _one, _zero = ZERO, INF
    _layer, _sep = "tropical", " "

    def _store(self, rows):
        object.__setattr__(self, "rows", rows)

    def _finite_entries(self):
        return [(i, j, v.value) for i, row in enumerate(self.rows, 1)
                for j, v in enumerate(row, 1) if v.value is not None]

    def _val_is_identity(self):
        """Is this the tropical identity: 0 on the diagonal, infinite
        elsewhere?"""
        return len(self.rows) == len(self.rows[0]) and all(
            v.value == 0 if i == j else v.value is None
            for i, row in enumerate(self.rows) for j, v in enumerate(row))


def trop_matvec(a: TropMatrix, v: TropVector) -> TropVector:
    """Tropical matrix-vector product: result_i = min_j (A_ij + v_j)."""
    if a.n_cols != len(v):
        raise ShapeError(
            "matrix has %d columns, vector has length %d" % (a.n_cols, len(v))
        )
    return TropVector(
        tuple(trop_sum(a.entry(i, j) + v[j] for j in range(a.n_cols))
              for i in range(a.n_rows))
    )


def trop_span_membership(generators, x: TropVector, projective=False):
    """Decide whether x lies in the tropical span of the generators, with
    finite scalars only.

    The principal coefficient of each generator C is the largest shift
    for which the shifted generator stays >= x coordinatewise; generators
    finite at a coordinate where x is infinite admit no finite shift and
    are excluded.  Membership holds iff the pointwise minimum of the
    shifted usable generators reproduces x.

    Returns (bool, coefficients, mismatch_coordinate) where coefficients
    maps generator positions to their principal shift (None = excluded).
    With projective, x names a projective point, which no all-infinite
    vector does, so that x raises DegeneratePointError; tls_membership
    instead accepts it, as every one of its circuit terms is infinite.
    """
    generators = list(generators)
    if not generators:
        raise UsageError("tropical span needs at least one generator")
    n = len(x)
    if any(len(g) != n for g in generators):
        raise ShapeError("generator length mismatch")
    if projective:
        if x.is_all_inf:
            raise DegeneratePointError("projective point cannot be all-infinite")
        x = projective_normalize(x)

    coeffs = []
    for g in generators:
        usable = True
        best = None
        for gi, xi in zip(g, x):
            if xi.is_inf:
                if gi.is_finite:
                    usable = False
                    break
                continue
            if gi.is_finite:
                d = xi - gi
                if best is None or d > best:
                    best = d
        coeffs.append(best if usable else None)

    for i in range(n):
        combo = trop_sum(
            lam + g[i] for lam, g in zip(coeffs, generators) if lam is not None
        )
        if combo != x[i]:
            return False, coeffs, i
    return True, coeffs, None


@dataclass(frozen=True, init=False, repr=False, eq=False)
class TropPolynomial:
    """A tropical polynomial given as (coefficient, exponent) terms.

    Exponents are multisets of opaque variable labels, stored as sorted
    tuples; repeated labels encode multiplicity.  No two terms may share
    an exponent.
    """

    __slots__ = ("terms",)
    terms: tuple

    def __init__(self, terms):
        cleaned = []
        seen = set()
        for coeff, expo in terms:
            expo = tuple(sorted(expo))
            if expo in seen:
                raise UsageError("duplicate exponent multiset in tropical polynomial")
            seen.add(expo)
            cleaned.append((_coerce(coeff), expo))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __eq__(self, other):
        if not isinstance(other, TropPolynomial):
            return NotImplemented
        return sorted(self.terms, key=lambda t: t[1]) == sorted(
            other.terms, key=lambda t: t[1]
        )

    def __repr__(self):
        if not self.terms:
            return "<empty tropical polynomial>"
        return " (+) ".join(
            "%r(*)%s" % (c, "".join(str(l) for l in e)) if e else repr(c)
            for c, e in self.terms
        )

    def term_values(self, assignment) -> list:
        """Evaluate every term under a label -> TropValue assignment."""
        out = []
        for coeff, expo in self.terms:
            acc = coeff
            for label in expo:
                if label not in assignment:
                    raise UsageError("unassigned variable label %r" % (label,))
                acc = acc + assignment[label]
            out.append(acc)
        return out


def trop_poly_vanishes(poly: TropPolynomial, assignment) -> bool:
    """True iff the term minimum is attained at least twice (infinity
    convention included).  A polynomial with no terms vanishes vacuously."""
    if not poly.terms:
        return True
    return min_attained_twice(poly.term_values(assignment))
