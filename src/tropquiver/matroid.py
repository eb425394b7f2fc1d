"""Valuated matroids: exchange-axiom checking, circuits, cocircuits,
tropical-linear-space membership, quotients, and deletion minors.

Ground sets are {1, ..., n}; basis-value tables are stored sparsely
(absent subsets are infinite) and kept exactly as given, since affine
constructions care about the actual values; comparisons that are only
meaningful projectively normalize on the fly.  The exchange axiom is
*not* enforced at construction: wrap a candidate table and interrogate it
with :func:`is_valuated_matroid`.  One exchange kernel serves it and
:func:`quotient_check`: it walks the finite support only and compares
lcm-scaled ints, which is still exact.  Every walk over the subsets of
the ground set is counted before it starts, against WALK_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm

from .errors import CapacityError, NotAMatroidError, ShapeError, UsageError
from .trop import (
    INF,
    TropValue,
    TropVector,
    min_attained_twice,
    projective_normalize,
    trop_sum,
)


# most subsets, or pairs of subsets, one call walks; about four times the
# n = 8 chain of ranks (3, 5) (4704 (I, J) pairs in all_relations), the
# largest instance the tests, scripts and benchmark build
WALK_CAP = 20000


def subset_count(n, k):
    """C(n, k), the number of k-subsets of [n]; 0 for k < 0 (the
    (r-1)-subsets of a rank-0 matroid)."""
    return comb(n, k) if k >= 0 else 0


def check_walk(what, count, unit="subsets"):
    """Raise CapacityError, before a walk starts, if it would visit more
    than WALK_CAP subsets or pairs of subsets."""
    if count > WALK_CAP:
        raise CapacityError("%s walks %d %s; the cap is %d" % (what, count, unit, WALK_CAP))


def _subset(iterable):
    s = tuple(sorted(iterable))
    if len(set(s)) != len(s):
        raise UsageError("subset with repeated elements: %r" % (s,))
    return s


@dataclass(frozen=True, init=False, repr=False)
class ValuatedMatroid:
    """A rank-r valuated matroid candidate on {1, ..., n}."""

    __slots__ = ("n", "r", "_finite")
    n: int
    r: int
    _finite: dict

    def __init__(self, n, r, values):
        if n < 1 or r < 0 or r > n:
            raise UsageError("need 0 <= r <= n and n >= 1, got r=%s n=%s" % (r, n))
        finite = {}
        for subset, value in dict(values).items():
            subset = _subset(subset)
            if len(subset) != r:
                raise UsageError("subset %r does not have size %d" % (subset, r))
            if subset and (subset[0] < 1 or subset[-1] > n):
                raise UsageError("subset %r not inside [1..%d]" % (subset, n))
            value = value if isinstance(value, TropValue) else TropValue(value)
            if value.is_finite:
                finite[subset] = value
        if not finite:
            raise NotAMatroidError("no subset has a finite value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_finite", finite)

    def value(self, subset) -> TropValue:
        return self._finite.get(_subset(subset), INF)

    def bases(self):
        """Finite-support subsets, i.e. the bases of the underlying matroid."""
        return sorted(self._finite)

    def table(self):
        """Finite values as a subset -> TropValue dict."""
        return dict(self._finite)

    def subsets(self):
        return combinations(range(1, self.n + 1), self.r)

    def __repr__(self):
        vals = ", ".join(
            "%s:%r" % ("".join(map(str, b)) or "{}", v)
            for b, v in sorted(self._finite.items())
        )
        return "ValuatedMatroid(n=%d, r=%d, {%s})" % (self.n, self.r, vals)


def uniform_matroid(n, r) -> ValuatedMatroid:
    """The trivially valued uniform matroid: every r-subset has value 0."""
    return ValuatedMatroid(n, r, {b: 0 for b in combinations(range(1, n + 1), r)})


def is_valuated_matroid(m: ValuatedMatroid):
    """Brute-force check of the tropical exchange axiom.

    Returns (True, None) or (False, (I, J, i)) with the lexicographically
    least violating triple.  An infinite left-hand side satisfies the
    axiom for free.
    """
    witness = _exchange_violation(m, m)
    return witness is None, witness


def _exchange_violation(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """The lexicographically least (I, J, i) with i in I - J and
    mu(I) + nu(J) < mu(I - i + j) + nu(J - j + i) for every j in J - I, or
    None.  Walks only pairs of finite bases (an infinite left-hand side
    never violates), in sorted order, which is the order of combinations.
    Subsets become bitmasks, and values become ints by scaling with the lcm
    of all denominators, which keeps every sum and comparison exact.
    """
    scale = lcm(*(v.value.denominator for m in (mu, nu) for v in m._finite.values()))
    left, right = (
        [(b, sum(1 << e for e in b), v.value.numerator * (scale // v.value.denominator))
         for b, v in sorted(m._finite.items())]
        for m in (mu, nu)
    )
    mu_at, nu_at = ({mask: x for _, mask, x in t} for t in (left, right))
    for i_set, i_mask, x in left:
        for j_set, j_mask, y in right:
            lhs = x + y
            only_j = [1 << j for j in j_set if not i_mask >> j & 1]
            for i in i_set:
                bit_i = 1 << i
                if j_mask & bit_i:
                    continue
                for bit_j in only_j:
                    a = mu_at.get(i_mask ^ bit_i | bit_j)
                    if a is not None:
                        b = nu_at.get(j_mask ^ bit_j | bit_i)
                        if b is not None and a + b <= lhs:
                            break
                else:
                    return i_set, j_set, i
    return None


def _dedupe_projective(vectors):
    """Drop all-infinite vectors and projective duplicates, keeping the
    raw (unnormalized) representatives in a deterministic order."""
    seen = set()
    out = []
    for v in vectors:
        if v.is_all_inf:
            continue
        key = projective_normalize(v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    out.sort(key=lambda v: tuple((e.is_inf, e.value or 0) for e in v))
    return out


def _subset_vectors(m: ValuatedMatroid, size, what, coordinate):
    """One vector per size-subset S of [n], coordinate(S, i) at each i,
    projectively deduplicated."""
    check_walk(what, subset_count(m.n, size))
    ground = range(1, m.n + 1)
    return _dedupe_projective(
        [TropVector(tuple(coordinate(s, i) for i in ground)) for s in combinations(ground, size)]
    )


def circuits(m: ValuatedMatroid):
    """Valuated circuits, projectively deduplicated."""
    return _subset_vectors(m, m.r + 1, "circuit enumeration", lambda big, i: (
        m.value(tuple(e for e in big if e != i)) if i in big else INF))


def cocircuits(m: ValuatedMatroid):
    """Valuated cocircuits, projectively deduplicated."""
    if m.r == 0:
        return []
    return _subset_vectors(m, m.r - 1, "cocircuit enumeration", lambda small, i: (
        INF if i in small else m.value(small + (i,))))


def tls_membership(m: ValuatedMatroid, x: TropVector):
    """Does x lie in the tropical linear space of m?

    Checks the min-attained-twice condition against every circuit;
    returns (bool, violating_circuit_or_None).
    """
    if len(x) != m.n:
        raise ShapeError("point has length %d, ground set has size %d" % (len(x), m.n))
    circ = _violated_circuit(circuits(m), x)
    return circ is None, circ


def _violated_circuit(circs, x):
    """The first of the precomputed circuits whose min-attained-twice
    condition the point x breaks, or None."""
    for c in circs:
        if not min_attained_twice([ci + xi for ci, xi in zip(c, x)]):
            return c
    return None


def quotient_check(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Is mu a valuated matroid quotient of nu (rank(mu) <= rank(nu))?

    Returns (bool, violating (I, J, i) triple or None).
    """
    if mu.n != nu.n:
        raise ShapeError("quotient requires a common ground set")
    if mu.r > nu.r:
        raise UsageError("quotient needs rank(mu) <= rank(nu)")
    witness = _exchange_violation(mu, nu)
    return witness is None, witness


def add_loop(m: ValuatedMatroid) -> ValuatedMatroid:
    """Extend the ground set by a loop at position n+1: same rank, bases
    through the new element valued infinity."""
    return ValuatedMatroid(m.n + 1, m.r, m.table())


def _delete_from_table(table, labels, e):
    """One deletion step on a raw label -> value table.  Returns
    (table, labels) over labels minus e; rank drops iff e is a coloop."""
    keep = {b: v for b, v in table.items() if e not in b}
    if keep:
        return keep, [l for l in labels if l != e]
    # e lies in every basis: coloop, contract the rank down
    dropped = {
        tuple(x for x in b if x != e): v for b, v in table.items() if e in b
    }
    return dropped, [l for l in labels if l != e]


def restrict_table(m: ValuatedMatroid, keep):
    """Restriction of m to a label subset via iterated deletion minors.

    Returns (rank, table) where the table keys still use the original
    labels.  Used by the affine-induced construction.
    """
    keep = set(keep)
    table = m.table()
    labels = list(range(1, m.n + 1))
    for e in range(1, m.n + 1):
        if e not in keep:
            table, labels = _delete_from_table(table, labels, e)
    rank = len(next(iter(table)))
    return rank, table


def delete(m: ValuatedMatroid, e) -> ValuatedMatroid:
    """Deletion minor m \\ e, with elements above e shifted down by one.

    If some finite basis avoids e the rank is preserved; if e is a coloop
    of the underlying matroid the rank drops by one and bases through e
    survive with e removed.
    """
    if not 1 <= e <= m.n:
        raise UsageError("element %r not in ground set" % (e,))
    table, _ = _delete_from_table(m.table(), list(range(1, m.n + 1)), e)
    rank = len(next(iter(table)))
    relabel = lambda x: x if x < e else x - 1
    return ValuatedMatroid(
        m.n - 1, rank, {tuple(relabel(x) for x in b): v for b, v in table.items()}
    )


def _normalized_table(m: ValuatedMatroid):
    shift = trop_sum(m._finite.values())
    return {b: v - shift for b, v in m._finite.items()}


def tls_equal(mu: ValuatedMatroid, nu: ValuatedMatroid) -> bool:
    """Tropical-linear-space equality: equal ranks and projectively equal
    basis-value tables."""
    if mu.n != nu.n:
        raise ShapeError("ground sets differ")
    return (
        mu.r == nu.r and _normalized_table(mu) == _normalized_table(nu)
    )
