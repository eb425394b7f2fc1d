"""Quivers, representations, Pluecker relation generation, and the
decision procedures for quiver-Dressian membership, tropical containment
and subrepresentation witnesses.

A representation fixes the ambient space K^n at every vertex; each arrow
carries an n x n matrix in a field layer (Puiseux entries), a tropical
layer (its entrywise valuation), or both.  Relation variables are labeled
(vertex, subset) so that a tuple of valuated matroids keyed by vertex
names gives an assignment directly.

Membership by relations evaluates an arrow between two distinct vertices
term by term, val(A_ij) + mu(I+j) + nu(J-i), without generating its
relations: the monomial p_{I+j} q_{J-i} fixes both j and i, so no two
terms can merge.  Only loops, whose terms can share a monomial, go through
the relation generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm
from typing import Optional

from .errors import CapacityError, ShapeError, UsageError
from .matroid import (
    ValuatedMatroid,
    _violated_circuit,
    circuits,
    cocircuits,
    is_valuated_matroid,
    quotient_check,
    tls_equal,
)
from .puiseux import (
    ONE,
    ZERO,
    FieldMatrix,
    classical_containment,
    pluecker_valuations,
    valuation,
)
from .trop import INF, TropMatrix, TropPolynomial, trop_matvec, trop_poly_vanishes

# most (I, J) pairs all_relations walks; about four times the n = 8 chain of
# ranks (3, 5) (4704 pairs), the largest instance the tests, scripts and
# benchmark build
RELATION_CAP = 20000


@dataclass(frozen=True)
class RepArrow:
    src: str
    dst: str
    field: Optional[FieldMatrix] = None
    trop: Optional[TropMatrix] = None


@dataclass(frozen=True, init=False, repr=False, eq=False)
class QuiverRepresentation:
    """A quiver with an n x n matrix layer per arrow and a dimension
    vector bounded by the ambient dimension."""

    __slots__ = ("n", "vertices", "arrows", "dim")
    n: int
    vertices: tuple
    arrows: tuple
    dim: dict

    def __init__(self, n, vertices, arrows, dim):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices) or not vertices:
            raise UsageError("vertices must be distinct and nonempty")
        dim = dict(dim)
        if set(dim) != set(vertices):
            raise UsageError("dimension vector must cover exactly the vertices")
        for v, d in dim.items():
            if not 1 <= d <= n:
                raise UsageError("dimension %r at vertex %r outside [1..%d]" % (d, v, n))
        arrows = tuple(arrows)
        for a in arrows:
            if a.src not in dim or a.dst not in dim:
                raise UsageError("arrow %r touches an unknown vertex" % (a,))
            if a.field is None and a.trop is None:
                raise UsageError("arrow %r carries no matrix layer" % (a,))
            for mat in (a.field, a.trop):
                if mat is not None and (mat.n_rows, mat.n_cols) != (n, n):
                    raise ShapeError("arrow matrices must be %dx%d" % (n, n))
            if a.field is not None and a.trop is not None:
                if self._valuation_matrix(a.field) != a.trop:
                    raise UsageError(
                        "tropical layer of arrow %r is not the valuation of its "
                        "field layer" % (a,)
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "dim", dim)

    @staticmethod
    def _valuation_matrix(m: FieldMatrix) -> TropMatrix:
        return TropMatrix(tuple(tuple(valuation(e) for e in row) for row in m.rows))

    def trop_matrix(self, a_idx) -> TropMatrix:
        a = self.arrows[a_idx]
        return a.trop if a.trop is not None else self._valuation_matrix(a.field)

    def field_matrix(self, a_idx) -> FieldMatrix:
        a = self.arrows[a_idx]
        if a.field is None:
            raise UsageError("arrow %d has no field layer" % a_idx)
        return a.field


def _sign(j, i_set, j_set):
    flips = sum(1 for jp in j_set if j < jp) + sum(1 for i in i_set if i > j)
    return -1 if flips % 2 else 1


def _merge_field(raw):
    """Classical layer of signed (sign, entry, monomial) terms: coefficients
    summed over equal monomials, zeros dropped; then its tropicalization."""
    acc = {}
    for sign, entry, mono in raw:
        acc[mono] = acc.get(mono, ZERO) + (entry if sign > 0 else -entry)
    classical = tuple(sorted((m, c) for m, c in acc.items() if not c.is_zero))
    return classical, TropPolynomial((valuation(c), m) for m, c in classical)


def _merge_trop(raw):
    """Tropical layer only: signs vanish, colliding monomials merge by minimum."""
    return None, TropPolynomial.merged((entry, mono) for _, entry, mono in raw)


def _relations(n, r, s, src, dst, columns, merge):
    """Pluecker relations of a matrix M from a rank-r source to a rank-s
    target, given by its nonzero (tropically: finite) entries per column as
    (j, [(i, M[i][j])]), 1-based.  Yields (I, J, classical, tropical) for
    every (r-1)-subset I and (s+1)-subset J with terms
    sign(j;I,J) * M[i][j] * p_{I+j} * q_{J-i}; merge turns the raw
    (sign, entry, monomial) terms into the layer's (classical, tropical)
    pair.  Relations without terms are skipped."""
    for i_set in combinations(range(1, n + 1), r - 1):
        for j_set in combinations(range(1, n + 1), s + 1):
            raw = []
            for j, entries in columns:
                if j in i_set:
                    continue
                left = (src, tuple(sorted(i_set + (j,))))
                sign = _sign(j, i_set, j_set)
                for i, entry in entries:
                    if i in j_set:
                        right = (dst, tuple(e for e in j_set if e != i))
                        raw.append((sign, entry, tuple(sorted((left, right)))))
            classical, tropical = merge(raw)
            if tropical.terms:
                yield i_set, j_set, classical, tropical


def grassmann_pluecker_relations(n, r, tag):
    """Nontrivial Grassmann-Pluecker relations of the rank-r Grassmannian,
    in variables labeled (tag, subset): the relations of the identity from
    (tag, r) to itself.  Yields (I, J, classical, tropical); classically
    cancelling relations are skipped."""
    identity = [(j, [(j, ONE)]) for j in range(1, n + 1)]
    yield from _relations(n, r, r, tag, tag, identity, _merge_field)


def quiver_pluecker_relations(rep: QuiverRepresentation, a_idx):
    """Quiver Pluecker relations of one arrow.

    Yields (I, J, classical_or_None, tropical): one relation per pair of a
    (rank-1)-subset I on the source side and a (rank+1)-subset J on the
    target side, with terms sign(j;I,J) * M[i][j] * p_{I+j} * q_{J-i}.
    The classical layer is present only when the arrow has a field matrix;
    without it, colliding monomials are merged tropically by minimum.
    Relations without terms are skipped in both layers.
    """
    arrow = rep.arrows[a_idx]
    if arrow.field is not None:
        rows, absent, merge = arrow.field.rows, ZERO, _merge_field
    else:
        rows, absent, merge = arrow.trop.rows, INF, _merge_trop
    columns = []
    for j in range(rep.n):
        entries = [(i + 1, row[j]) for i, row in enumerate(rows) if row[j] != absent]
        if entries:
            columns.append((j + 1, entries))
    yield from _relations(rep.n, rep.dim[arrow.src], rep.dim[arrow.dst],
                          arrow.src, arrow.dst, columns, merge)


def _proportional(c1, c2):
    if len(c1) != len(c2) or [m for m, _ in c1] != [m for m, _ in c2]:
        return False
    lead1, lead2 = c1[0][1], c2[0][1]
    return all(a * lead2 == b * lead1 for (_, a), (_, b) in zip(c1, c2))


def _trop_projective_key(poly: TropPolynomial):
    finite = [c for c, _ in poly.terms if c.is_finite]
    shift = min(c.value for c in finite) if finite else 0
    return tuple(
        sorted((m, None if c.is_inf else c.value - shift) for c, m in poly.terms)
    )


def all_relations(rep: QuiverRepresentation):
    """Every defining relation of the quiver Dressian: the vertex
    Grassmann-Pluecker relations plus the per-arrow quiver Pluecker
    relations, deduplicated (classically up to scalar, tropically up to a
    projective shift).  Vacuous relations are never generated.

    Returns a list of dicts with keys kind, where, I, J, classical,
    tropical.  Raises CapacityError, before generating anything, when more
    than RELATION_CAP (I, J) pairs would be walked: C(n, r-1) * C(n, r+1)
    for a vertex of rank r, C(n, r-1) * C(n, s+1) for an arrow from rank r
    to rank s.
    """
    n, dim = rep.n, rep.dim
    pairs = sum(comb(n, dim[v] - 1) * comb(n, dim[v] + 1) for v in rep.vertices)
    pairs += sum(comb(n, dim[a.src] - 1) * comb(n, dim[a.dst] + 1) for a in rep.arrows)
    if pairs > RELATION_CAP:
        raise CapacityError("relation generation walks %d (I, J) pairs; the cap is %d"
                            % (pairs, RELATION_CAP))
    out = []
    seen_classical = {}  # monomial support -> classical relations kept
    seen_tropical = set()

    def push(kind, where, i_set, j_set, classical, tropical):
        if classical is not None:
            bucket = seen_classical.setdefault(tuple(m for m, _ in classical), [])
            if any(_proportional(prev, classical) for prev in bucket):
                return
            bucket.append(classical)
        else:
            key = _trop_projective_key(tropical)
            if key in seen_tropical:
                return
            seen_tropical.add(key)
        out.append(
            {
                "kind": kind,
                "where": where,
                "I": i_set,
                "J": j_set,
                "classical": classical,
                "tropical": tropical,
            }
        )

    for v in rep.vertices:
        for i_set, j_set, classical, tropical in grassmann_pluecker_relations(
            rep.n, rep.dim[v], v
        ):
            push("vertex", v, i_set, j_set, classical, tropical)
    for a_idx in range(len(rep.arrows)):
        for i_set, j_set, classical, tropical in quiver_pluecker_relations(rep, a_idx):
            push("arrow", a_idx, i_set, j_set, classical, tropical)
    return out


def _validate_tuple(rep: QuiverRepresentation, mus):
    if set(mus) != set(rep.vertices):
        raise UsageError("matroid tuple must be keyed by exactly the vertices")
    for v in rep.vertices:
        m = mus[v]
        if m.n != rep.n:
            raise ShapeError("matroid at %r lives on [%d], ambient is [%d]"
                             % (v, m.n, rep.n))
        if m.r != rep.dim[v]:
            raise UsageError("matroid at %r has rank %d, dimension vector says %d"
                             % (v, m.r, rep.dim[v]))


def _assignment(mus, poly: TropPolynomial):
    assign = {}
    for _, mono in poly.terms:
        for vertex, subset in mono:
            assign[(vertex, subset)] = mus[vertex].value(subset)
    return assign


def _matroid_failure(rep: QuiverRepresentation, mus):
    """Check the tuple's shape, then the exchange axiom at every vertex:
    the first ("matroid", vertex, witness) certificate, or None.  Both
    membership routes start with this check."""
    _validate_tuple(rep, mus)
    for v in rep.vertices:
        ok, witness = is_valuated_matroid(mus[v])
        if not ok:
            return "matroid", v, witness
    return None


def _relation_failure(rep: QuiverRepresentation, mus):
    """The relation route's arrow stage: the first ("relation", arrow, I, J)
    whose tropical quiver Pluecker relation has a unique finite minimum, or
    None.  Arrows between distinct vertices go through the flat kernel;
    loops build their merged relations with the generator."""
    for a_idx, arrow in enumerate(rep.arrows):
        if arrow.src != arrow.dst:
            failing = _relation_kernel(
                rep.trop_matrix(a_idx), mus[arrow.src], mus[arrow.dst]
            )
            if failing is not None:
                return ("relation", a_idx) + failing
            continue
        for i_set, j_set, _, tropical in quiver_pluecker_relations(rep, a_idx):
            if not trop_poly_vanishes(tropical, _assignment(mus, tropical)):
                return "relation", a_idx, i_set, j_set
    return None


def qdr_membership(rep: QuiverRepresentation, mus):
    """Quiver-Dressian membership by relation vanishing.

    Every vertex matroid must satisfy the exchange axiom (the tropical
    Grassmann-Pluecker layer) and every tropical quiver Pluecker relation
    must have its minimum attained twice under p_I -> mu(I).

    On an arrow between two distinct vertices no two terms of a relation
    share a monomial, since p_{I+j} q_{J-i} fixes both j and i; nothing
    merges, and the relation is evaluated term by term,
    val(A_ij) + mu(I+j) + nu(J-i), without building it.  On a loop two
    terms can be one monomial, so loops keep the merged relations of
    quiver_pluecker_relations.  Returns (bool, certificate).
    """
    cert = _matroid_failure(rep, mus) or _relation_failure(rep, mus)
    return cert is None, cert


def _relation_kernel(a: TropMatrix, mu: ValuatedMatroid, nu: ValuatedMatroid):
    """The first (I, J) in the generator's order whose tropical quiver
    Pluecker relation for an arrow between two distinct vertices has a
    finite minimum attained by a single term, or None.

    The terms are val(A_ij) + mu(I+j) + nu(J-i) for j not in I and i in J,
    one per pair (i, j): the monomial p_{I+j} q_{J-i} fixes both j and i,
    so nothing merges.  For each I the terms are grouped by target index i
    into (minimum over j, number of j attaining it); each J then combines
    the groups of its members with nu(J-i) in O(|J|).  Subsets are
    bitmasks, and values become ints by scaling with the lcm of all
    denominators, as in the exchange kernel.
    """
    entries = [(i, j, v.value) for i, row in enumerate(a.rows, 1)
               for j, v in enumerate(row, 1) if v.is_finite]
    scale = lcm(*(x.denominator for _, _, x in entries),
                *(v.value.denominator for m in (mu, nu) for v in m._finite.values()))

    def scaled(x):
        return x.numerator * (scale // x.denominator)

    mu_at, nu_at = ({sum(1 << e for e in b): scaled(v.value) for b, v in m._finite.items()}
                    for m in (mu, nu))
    columns = {}
    for i, j, x in entries:
        columns.setdefault(j, []).append((i, scaled(x)))
    columns = sorted(columns.items())
    # per J, its members i with a finite nu(J-i)
    targets = []
    for j_set in combinations(range(1, a.n_rows + 1), nu.r + 1):
        j_mask = sum(1 << e for e in j_set)
        row = [(i, nu_at[j_mask ^ 1 << i]) for i in j_set if j_mask ^ 1 << i in nu_at]
        if row:
            targets.append((j_set, row))
    for i_set in combinations(range(1, a.n_cols + 1), mu.r - 1):
        i_mask = sum(1 << e for e in i_set)
        best = {}  # i -> [min over j of A_ij + mu(I+j), how many j attain it]
        for j, column in columns:
            if i_mask >> j & 1:
                continue
            x = mu_at.get(i_mask | 1 << j)
            if x is None:
                continue
            for i, a_ij in column:
                t = a_ij + x
                b = best.get(i)
                if b is None or t < b[0]:
                    best[i] = [t, 1]
                elif t == b[0]:
                    b[1] += 1
        if not best:
            continue
        for j_set, row in targets:
            low, count = None, 0
            for i, y in row:
                b = best.get(i)
                if b is not None:
                    t = b[0] + y
                    if low is None or t < low:
                        low, count = t, b[1]
                    elif t == low:
                        count += b[1]
            if count == 1:
                return i_set, j_set
    return None


def containment_check(a: TropMatrix, mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Is val(A) (.) trop(mu) contained in trop(nu)?

    The image is tropically generated by the images of mu's cocircuits, so
    it suffices to test each image against nu's circuits.  Returns
    (bool, (cocircuit, violating_circuit) or None).
    """
    if mu.n != nu.n:
        raise ShapeError("matroids live on different ground sets")
    if a.n_rows != nu.n or a.n_cols != mu.n:
        raise ShapeError("matrix shape does not match the ground sets")
    circs = circuits(nu)
    for c_star in cocircuits(mu):
        circ = _violated_circuit(circs, trop_matvec(a, c_star))
        if circ is not None:
            return False, (c_star, circ)
    return True, None


def qdr_membership_via_containment(rep: QuiverRepresentation, mus):
    """Quiver-Dressian membership by per-arrow containment of tropical
    linear spaces; independent of (and cross-tested against) the
    relation-vanishing route."""
    cert = _matroid_failure(rep, mus) or _containment_failure(rep, mus)
    return cert is None, cert


def _containment_failure(rep: QuiverRepresentation, mus):
    """The containment route's arrow stage: the first
    ("containment", arrow, (cocircuit, circuit)), or None."""
    for a_idx, arrow in enumerate(rep.arrows):
        ok, cert = containment_check(
            rep.trop_matrix(a_idx), mus[arrow.src], mus[arrow.dst]
        )
        if not ok:
            return "containment", a_idx, cert
    return None


def is_subrepresentation(rep: QuiverRepresentation, candidate):
    """Do the candidate row spans form a quiver subrepresentation?

    candidate maps each vertex to a full-row-rank d_i x n field matrix.
    Returns (bool, violating_arrow_index or None).
    """
    if set(candidate) != set(rep.vertices):
        raise UsageError("candidate must be keyed by exactly the vertices")
    for v in rep.vertices:
        m = candidate[v]
        if m.n_rows != rep.dim[v] or m.n_cols != rep.n:
            raise UsageError(
                "candidate at %r must be %dx%d" % (v, rep.dim[v], rep.n)
            )
    for a_idx, arrow in enumerate(rep.arrows):
        if not classical_containment(
            rep.field_matrix(a_idx), candidate[arrow.src], candidate[arrow.dst]
        ):
            return False, a_idx
    return True, None


def trop_qgr_witness_check(rep: QuiverRepresentation, mus, witness):
    """Does the witness certify the matroid tuple as a point of the
    tropicalized quiver Grassmannian?  The witness must be a quiver
    subrepresentation whose Pluecker valuations reproduce each matroid
    projectively.  Returns (bool, certificate)."""
    _validate_tuple(rep, mus)
    ok, a_idx = is_subrepresentation(rep, witness)
    if not ok:
        return False, ("subrepresentation", a_idx)
    for v in rep.vertices:
        realized = pluecker_valuations(witness[v])
        if not tls_equal(realized, mus[v]):
            return False, ("valuation-mismatch", v)
    return True, None


def flag_mode_check(mus_by_rank):
    """Flag-of-matroids check: consecutive quotient conditions along a
    strictly rank-increasing sequence.  Equals quiver-Dressian membership
    for the identity-arrow chain quiver.  Returns (bool, certificate)."""
    mus = list(mus_by_rank)
    if len(mus) < 2:
        raise UsageError("a flag needs at least two matroids")
    ranks = [m.r for m in mus]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise UsageError("ranks must be strictly increasing, got %r" % (ranks,))
    for k in range(len(mus) - 1):
        ok, cert = quotient_check(mus[k], mus[k + 1])
        if not ok:
            return False, (k, cert)
    return True, None


def identity_chain_representation(n, ranks):
    """The A_k chain quiver with identity arrows, one vertex per rank."""
    vertices = ["v%d" % (k + 1) for k in range(len(ranks))]
    arrows = [
        RepArrow(vertices[k], vertices[k + 1], field=FieldMatrix.identity(n))
        for k in range(len(ranks) - 1)
    ]
    return QuiverRepresentation(
        n, vertices, arrows, {v: r for v, r in zip(vertices, ranks)}
    )
