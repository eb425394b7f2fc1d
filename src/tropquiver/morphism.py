"""Ground-set maps with scaling data and affine morphisms of valuated
matroids, plus the dictionary between weakly monomial matrices and maps.

A map carries, for each ground-set element i, a target f1(i) in
{1..n, o} and a tropical shift f2(i); the distinguished element o models
the origin and is encoded internally as 0.  The induced matroid of a map
lives on [n]: it restricts the target matroid to the image of f1 and
shifts each basis value by the sum of the scaling data.  The pointed
induced matroid adds o to it as a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ShapeError, UsageError
from .matroid import (
    ValuatedMatroid,
    add_loop,
    check_walk,
    cocircuits,
    containment_check,
    quotient_check,
    restrict_table,
    subset_count,
)
from .puiseux import FieldMatrix, PuiseuxElement, valuation
from .puiseux import ONE as F_ONE, ZERO as F_ZERO
from .trop import INF, TropMatrix, TropValue, trop_matvec, trop_span_membership

O = 0  # the distinguished origin element


@dataclass(frozen=True, init=False, repr=False)
class GroundSetMap:
    """f = (f1, f2): [n] u {o} -> ([n] u {o}) x T, fixing o.

    ``assignments`` maps each i in 1..n to a (target, shift) pair; the
    origin is implicit (f(o) = (o, inf)).  A target of o forces an
    infinite shift.
    """

    __slots__ = ("n", "f1", "f2")
    n: int
    f1: dict
    f2: dict

    def __init__(self, n, assignments):
        if n < 1:
            raise UsageError("ground set must be nonempty")
        f1, f2 = {O: O}, {O: INF}
        assignments = dict(assignments)
        if set(assignments) != set(range(1, n + 1)):
            raise UsageError("map must assign exactly the elements 1..%d" % n)
        for i, (target, shift) in assignments.items():
            shift = shift if isinstance(shift, TropValue) else TropValue(shift)
            if target == O or target == "o":
                if shift.is_finite:
                    raise UsageError("element %d maps to o with a finite shift" % i)
                f1[i], f2[i] = O, INF
                continue
            if not 1 <= target <= n:
                raise UsageError("target %r outside [1..%d]" % (target, n))
            if shift.is_inf:
                # an infinite shift kills every basis through i, exactly as
                # mapping i to the origin does; normalize to the o case
                f1[i], f2[i] = O, INF
            else:
                f1[i], f2[i] = int(target), shift
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    def __repr__(self):
        body = ", ".join(
            "%d->(%s, %r)" % (i, self.f1[i] if self.f1[i] != O else "o", self.f2[i])
            for i in range(1, self.n + 1)
        )
        return "GroundSetMap(%s)" % body

    @classmethod
    def identity(cls, n):
        return cls(n, {i: (i, 0) for i in range(1, n + 1)})


def affine_induced(nu: ValuatedMatroid, f: GroundSetMap) -> ValuatedMatroid:
    """The affine induced valuated matroid of f against nu, as a pointed
    matroid on [n] u {o} with o stored at position n+1, a loop."""
    return add_loop(affine_induced_unpointed(nu, f))


def affine_induced_unpointed(nu: ValuatedMatroid, f: GroundSetMap) -> ValuatedMatroid:
    """The affine induced valuated matroid of f against nu on [n], without
    the origin.

    The target matroid is restricted to the image of f1; a basis B gets
    the restricted value at f1(B) plus the sum of the shifts f2(i) over B.
    Bases on which f1 is not injective, or which f1 sends to o, are valued
    infinity.
    """
    if f.n != nu.n:
        raise ShapeError("map and matroid ground sets differ")
    image = {f.f1[i] for i in range(1, f.n + 1) if f.f1[i] != O}
    rank, table = restrict_table(nu, image)
    check_walk("affine induction", subset_count(f.n, rank))
    values = {}
    for basis in combinations(range(1, f.n + 1), rank):
        targets = [f.f1[i] for i in basis]
        if O in targets or len(set(targets)) != len(targets):
            continue
        base_val = table.get(tuple(sorted(targets)))
        if base_val is not None:  # every shift of an element not sent to o is finite
            values[basis] = sum((f.f2[i].value for i in basis), base_val)
    return ValuatedMatroid(f.n, rank, values)


def is_affine_morphism(f: GroundSetMap, mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Is f: mu -> nu an affine morphism, i.e. is the affine induced
    matroid of nu a quotient of mu?

    A rank-order failure (induced rank exceeding rank(mu)) is reported as
    a negative verdict with certificate, not an error.
    """
    if mu.n != nu.n or f.n != mu.n:
        raise ShapeError("map and matroids must share a ground set size")
    ind = affine_induced_unpointed(nu, f)
    if ind.r > mu.r:
        return False, ("rank-order", ind.r, mu.r)
    return quotient_check(ind, mu)


def is_weakly_monomial(a: FieldMatrix) -> bool:
    """At most one nonzero entry in each row."""
    return all(sum(1 for x in row if x) <= 1 for row in a._at)


def _monomial_rows(a: FieldMatrix, noun):
    """Per row of a square weakly monomial matrix, the column of its
    nonzero entry, 0-based, or None for a zero row; UsageError naming noun
    if a is not square, or not weakly monomial."""
    if a.n_rows != a.n_cols:
        raise UsageError("%s needs a square matrix" % noun)
    hits = [[j for j, x in enumerate(row) if x] for row in a._at]
    if any(len(hit) > 1 for hit in hits):
        raise UsageError("matrix is not weakly monomial")
    return [hit[0] if hit else None for hit in hits]


def associated_map(a: FieldMatrix) -> GroundSetMap:
    """The map of a square weakly monomial matrix: a zero row i goes to
    (o, inf); otherwise i goes to the column of its nonzero entry with the
    entry's valuation as shift."""
    assignments = {}
    for i, j in enumerate(_monomial_rows(a, "associated map")):
        assignments[i + 1] = (O, INF) if j is None else (j + 1, valuation(a.entry(i, j)))
    return GroundSetMap(a.n_rows, assignments)


def associated_matrix(f: GroundSetMap):
    """One field matrix representative of f (entries t**f2(i)) together
    with its entrywise valuation, which is the unique tropical matrix of f.

    Requires finite shifts wherever f1 avoids o, so that a field element
    of the prescribed valuation exists.
    """
    n = f.n
    rows = []
    trows = []
    for i in range(1, n + 1):
        row = [F_ZERO] * n
        trow = [INF] * n
        if f.f1[i] != O:
            if f.f2[i].is_inf:
                raise UsageError(
                    "no field element has infinite valuation at element %d" % i
                )
            row[f.f1[i] - 1] = PuiseuxElement.t_power(f.f2[i].value)
            trow[f.f1[i] - 1] = f.f2[i]
        rows.append(tuple(row))
        trows.append(tuple(trow))
    return FieldMatrix(rows), TropMatrix(trows)


def decompose_weakly_monomial(a: FieldMatrix):
    """Write a square weakly monomial A as D * B with B a 0/1 weakly
    monomial support pattern and D a full-rank diagonal matrix (zero rows
    get diagonal entry 1)."""
    n = a.n_rows
    b_rows, d_rows = [], []
    for i, j in enumerate(_monomial_rows(a, "decomposition")):
        b_row = [F_ZERO] * n
        d_row = [F_ZERO] * n
        if j is None:
            d_row[i] = F_ONE
        else:
            d_row[i] = a.entry(i, j)
            b_row[j] = F_ONE
        b_rows.append(tuple(b_row))
        d_rows.append(tuple(d_row))
    return FieldMatrix(b_rows), FieldMatrix(d_rows)


def matrix_product(x: FieldMatrix, y: FieldMatrix) -> FieldMatrix:
    if x.n_cols != y.n_rows:
        raise ShapeError("matrix product shape mismatch")
    return FieldMatrix(
        tuple(
            tuple(
                sum((x.entry(i, k) * y.entry(k, j) for k in range(x.n_cols)), F_ZERO)
                for j in range(y.n_cols)
            )
            for i in range(x.n_rows)
        )
    )


def compose_maps(g: GroundSetMap, h: GroundSetMap) -> GroundSetMap:
    """The composite map applying g first:
    (h o g)(i) = (h1(g1(i)), g2(i) + h2(g1(i))), with absorbing addition."""
    if g.n != h.n:
        raise ShapeError("maps have different ground set sizes")
    assignments = {}
    for i in range(1, g.n + 1):
        mid = g.f1[i]
        assignments[i] = (h.f1[mid], g.f2[i] + h.f2[mid])
    return GroundSetMap(g.n, assignments)


def image_equals_induced(f: GroundSetMap, mu: ValuatedMatroid):
    """Verify trop(f^{-1}(mu)) = val(A_f) (.) trop(mu) by generators:
    every cocircuit of the induced matroid must lie in the tropical span
    of the matrix images of mu's cocircuits, and every such image must
    satisfy the circuit conditions of the induced matroid, which is
    containment_check of mu under val(A_f) in the induced matroid.  Each
    half counts its (cocircuit, generator) or (cocircuit, circuit) pairs
    against WALK_CAP before it starts."""
    _, a_trop = associated_matrix(f)
    ind = affine_induced_unpointed(mu, f)
    check_walk("span check", subset_count(f.n, ind.r - 1) * subset_count(f.n, mu.r - 1),
               "(cocircuit, generator) pairs")
    usable = [y for y in (trop_matvec(a_trop, c) for c in cocircuits(mu)) if not y.is_all_inf]
    for c in cocircuits(ind):
        if not usable:
            return False, ("no-generators", c)
        ok, _, coord = trop_span_membership(usable, c, projective=True)
        if not ok:
            return False, ("span", c, coord)
    ok, cert = containment_check(a_trop, mu, ind)
    if not ok:
        c_star, circ = cert
        return False, ("circuit", trop_matvec(a_trop, c_star), circ)
    return True, None
