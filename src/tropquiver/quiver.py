"""Quivers, representations, Pluecker relation generation, and the
decision procedures for quiver-Dressian membership, tropical containment
and subrepresentation witnesses.

A representation fixes the ambient space K^n at every vertex; each arrow
carries an n x n matrix in a field layer (Puiseux entries), a tropical
layer (its entrywise valuation), or both, validated equal.  The walks read
val(A) from either layer, the cheaper tropical one where both are given,
and never build it as a TropMatrix.  Relation variables are labeled
(vertex, subset) so that a tuple of valuated matroids keyed by vertex
names gives an assignment directly.

Relations are generated and deduplicated over ints: a field layer's
stored form (one coefficient scale L per matrix, as one relation sums
entries of different rows) or a tropical layer's values, with exponents on
one scale N.  Puiseux and tropical objects are built only for the
relations that are yielded or kept, and not at all for the relations
verdict: _kept_relations hands the kept int relations and their scales to
jsonio.relations_to_json.

Both membership routes evaluate an arrow by the terms
val(A_ij) + mu(I+j) + nu(J-i) in matroid's one integer walk: relations
count every term, containment (matroid.containment_check, imported here)
each target index i once.  Between two distinct vertices no two terms
merge, since the monomial p_{I+j} q_{J-i} fixes both j and i; loops,
whose terms can share a monomial, are valued on the merged int relations.
On the identity between distinct vertices, with full supports and rank
rising along the arrow, the two routes are one test, which
matroid._incidence_failure makes without the walk; the walk then runs only
on a rejection, for the certificate.

The witness check moves the witness and the field layers to one exponent
scale and keeps one minor memo per vertex, read by its arrows and its
Pluecker valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from typing import Optional

from .errors import ShapeError, UsageError
from .matroid import (
    WALK_CAP as RELATION_CAP,  # the cap all_relations counts against
    _fractions,
    _full,
    _incidence_failure,
    _mask,
    _unrepeated,
    _unique_minimum,
    check_walk,
    containment_check,
    is_valuated_matroid,
    quotient_check,
    subset_count,
    tls_equal,
)
from .puiseux import (FieldMatrix, _check_rank, _contained, _scaled_system, _unscaled,
                      _valuations, valuation)
from .trop import TropMatrix, TropPolynomial, TropValue


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
                if a.field._finite_entries() != a.trop._finite_entries():
                    raise UsageError(
                        "tropical layer of arrow %r is not the valuation of its "
                        "field layer" % (a,)
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "dim", dim)

    def trop_matrix(self, a_idx) -> TropMatrix:
        """The arrow's tropical layer, or the valuation of its field layer."""
        a = self.arrows[a_idx]
        return a.trop if a.trop is not None else TropMatrix(
            tuple(tuple(valuation(e) for e in row) for row in a.field.rows))

    def field_matrix(self, a_idx) -> FieldMatrix:
        a = self.arrows[a_idx]
        if a.field is None:
            raise UsageError("arrow %d has no field layer" % a_idx)
        return a.field


def _exp_scale(arrows):
    """The lcm of the arrows' exponent denominators (a field layer's _scale)."""
    return reduce(lcm, [a.field._scale if a.field is not None else
                        reduce(lcm, (x.denominator for _, _, x in a.trop._finite_entries()), 1)
                        for a in arrows], 1)


def _scaled_columns(arrow: RepArrow, exp_scale):
    """An arrow's nonzero (tropically: finite) entries per column as
    (j, [(i, entry)]), 1-based, over ints with exponents times exp_scale
    and a field layer's stored coefficients.  An entry is the pair of its
    values under the signs +1 and -1: a field entry's sorted (exponent,
    coefficient) tuple and its negative, a tropical entry's value twice.
    Returns (columns, L), L the field layer's coefficient scale, None for
    the tropical layer."""
    if arrow.field is not None:
        k, coeff_scale = exp_scale // arrow.field._scale, arrow.field._coeff
        rows = [[tuple(sorted((e * k, c) for e, c in x.items())) or None for x in row]
                for row in arrow.field._at]

        def scaled(p):
            return p, tuple((e, -c) for e, c in p)
    else:
        rows = [[x.value for x in row] for row in arrow.trop.rows]
        coeff_scale = None

        def scaled(value):
            v = value.numerator * (exp_scale // value.denominator)
            return v, v
    columns = []
    for j in range(len(rows[0])):
        entries = [(i + 1, scaled(row[j])) for i, row in enumerate(rows) if row[j] is not None]
        if entries:
            columns.append((j + 1, entries))
    return columns, coeff_scale


_UNIT = (((0, 1),), ((0, -1),))  # the entry 1 under both signs


def _identity_columns(n):
    return [(j, [(j, _UNIT)]) for j in range(1, n + 1)]


def _add(p, q):
    """Sum of two int polynomials given as sorted (exponent, coefficient)
    tuples, in the same form; None when it is zero."""
    acc = dict(p)
    for e, c in q:
        acc[e] = acc.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c)) or None


def _relations(n, r, s, src, dst, columns, merge, pick=None):
    """Pluecker relations, over ints, of a matrix M from a rank-r source to
    a rank-s target, given by its columns as _scaled_columns returns them.
    Yields (I, J, terms) for every (r-1)-subset I and (s+1)-subset J with
    terms sign(j;I,J) * M[i][j] * p_{I+j} * q_{J-i}: terms is a tuple of
    (monomial, coefficient) sorted by monomial, the coefficients of one
    monomial merged by merge (classically _add, whose None marks a
    cancelled monomial, dropped here; tropically min).  Relations without
    terms are skipped.  pick, given I's bitmask and the (J, J's bitmask)
    pairs, returns the J walked with that I; the rest are skipped before
    any term is built.

    Each factor (vertex, subset) is built once per call, with its rank in
    monomial order: tuples compare by vertex name, then by subset, so
    factors of equal names and equal subsets share a rank.  A term merges
    under the int key of its two ranks, lower first; i in J and the sign
    are read off bitmasks.  A monomial is (p_{I+j}, q_{J-i}), or the
    reverse where q_{J-i} ranks lower, each side with its own vertex name.
    Where the names are equal but not one object (1 and True print
    differently) and the ranks coincide, a monomial met in both orders
    keeps the order it was met in first."""
    ground = range(1, n + 1)
    j_sets = [(j_set, _mask(j_set)) for j_set in combinations(ground, s + 1)]
    try:
        # the target's factors sort before, with or after the source's
        tag = 0 if src == dst else -1 if dst < src else 1
    except TypeError:
        # names that do not compare: fail where a term would order them
        if any(_relations(n, r, s, 0, 1, columns, merge, pick)):
            raise
        return
    ranked = sorted([(0, subset, 0) for subset in combinations(ground, r)]
                    + [(tag, subset, 1) for subset in combinations(ground, s)])
    # per side (source, target): subset bitmask -> rank, rank -> factor
    at, named = ({}, {}), ([None] * len(ranked), [None] * len(ranked))
    rank, last = -1, None
    for t, subset, side in ranked:
        if (t, subset) != last:
            rank, last = rank + 1, (t, subset)
        at[side][_mask(subset)] = rank
        named[side][rank] = (dst if side else src, subset)
    src_at, dst_at = at
    # a rank's factor on each side, the other side's where that has none
    src_factor = [f or g for f, g in zip(*named)]
    dst_factor = [g or f for f, g in zip(*named)]
    shift = rank.bit_length()
    low = (1 << shift) - 1
    oriented = src == dst and src is not dst and r == s
    cols = [(1 << j, (2 << j) - 1, [(1 << i, entry) for i, entry in entries])
            for j, entries in columns]
    for i_set in combinations(ground, r - 1):
        i_mask = _mask(i_set)
        # per column j outside I: the bits up to j, p_{I+j}'s rank, and the
        # flips of sign(j;I,J) counted inside I, plus |J| (the flips in J
        # are |J| minus the members of J up to j)
        lefts = [(upto, (i_mask & ~upto).bit_count() + s + 1, src_at[i_mask | bit], entries)
                 for bit, upto, entries in cols if not i_mask & bit]
        for j_set, j_mask in j_sets if pick is None else pick(i_mask, j_sets):
            acc = {}
            first = {} if oriented else None  # key -> was q_{J-i} first?
            for upto, flips, lr, entries in lefts:
                odd = (flips + (j_mask & upto).bit_count()) & 1
                for i_bit, entry in entries:
                    if j_mask & i_bit:
                        rr = dst_at[j_mask ^ i_bit]
                        key = lr << shift | rr if lr <= rr else rr << shift | lr
                        prev = acc.get(key)
                        if prev is None:
                            acc[key] = entry[odd]
                            if first is not None:
                                first.setdefault(key, rr < lr)
                        else:
                            acc[key] = merge(prev, entry[odd])
            terms = tuple(((dst_factor[k >> shift], src_factor[k & low]) if first and first[k]
                           else (src_factor[k >> shift], dst_factor[k & low]), c)
                          for k, c in sorted(acc.items()) if c is not None)
            if terms:
                yield i_set, j_set, terms


def _convert(terms, exp_scale, coeff_scale, cache):
    """The (classical, tropical) pair of int relation terms, exponents
    divided back by exp_scale and coefficients by coeff_scale: Puiseux
    coefficients and their valuations, or for the tropical layer
    (coeff_scale None) no classical layer and the values alone.  cache maps
    an int coefficient to what it converts to, so that each distinct one is
    built once per cache; its owner keeps one per pair of scales."""
    values = []
    for _, c in terms:
        hit = cache.get(c)
        if hit is None:
            if coeff_scale is None:
                hit = TropValue(Fraction(c, exp_scale))
            else:
                hit = (_unscaled(c, exp_scale, coeff_scale),
                       TropValue(Fraction(c[0][0], exp_scale)))
            cache[c] = hit
        values.append(hit)
    if coeff_scale is None:
        return None, TropPolynomial((v, m) for (m, _), v in zip(terms, values))
    return (tuple((m, p) for (m, _), (p, _) in zip(terms, values)),
            TropPolynomial((v, m) for (m, _), (_, v) in zip(terms, values)))


def grassmann_pluecker_relations(n, r, tag):
    """Nontrivial Grassmann-Pluecker relations of the rank-r Grassmannian,
    in variables labeled (tag, subset): the relations of the identity from
    (tag, r) to itself.  Yields (I, J, classical, tropical); classically
    cancelling relations are skipped."""
    cache = {}
    for i_set, j_set, terms in _relations(n, r, r, tag, tag, _identity_columns(n), _add):
        yield (i_set, j_set) + _convert(terms, 1, 1, cache)


def _arrow_relations(rep: QuiverRepresentation, a_idx, exp_scale):
    """The int relations of one arrow (_relations, exponents times
    exp_scale) and the arrow's coefficient scale, None for the tropical
    layer."""
    arrow = rep.arrows[a_idx]
    columns, coeff_scale = _scaled_columns(arrow, exp_scale)
    relations = _relations(rep.n, rep.dim[arrow.src], rep.dim[arrow.dst], arrow.src,
                           arrow.dst, columns, min if coeff_scale is None else _add)
    return relations, coeff_scale


def quiver_pluecker_relations(rep: QuiverRepresentation, a_idx):
    """Quiver Pluecker relations of one arrow.

    Yields (I, J, classical_or_None, tropical): one relation per pair of a
    (rank-1)-subset I on the source side and a (rank+1)-subset J on the
    target side, with terms sign(j;I,J) * M[i][j] * p_{I+j} * q_{J-i}.
    The classical layer is present only when the arrow has a field matrix;
    without it, colliding monomials are merged tropically by minimum.
    Relations without terms are skipped in both layers.
    """
    exp_scale = _exp_scale([rep.arrows[a_idx]])
    relations, coeff_scale = _arrow_relations(rep, a_idx, exp_scale)
    cache = {}
    for i_set, j_set, terms in relations:
        yield (i_set, j_set) + _convert(terms, exp_scale, coeff_scale, cache)


def _times(p, q):
    """Product of two int polynomials given as (exponent, coefficient)
    tuples, as an {exponent: coefficient} dict without zeros."""
    acc = {}
    for e1, c1 in p:
        for e2, c2 in q:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _proportional(c1, c2):
    """Is one of two classical int relations on the same monomials, in the
    same order, a scalar multiple of the other?  Their exponents must share
    one scale; their coefficient scales may differ, a constant factor."""
    lead1, lead2 = c1[0][1], c2[0][1]
    return all(_times(a, lead2) == _times(b, lead1) for (_, a), (_, b) in zip(c1, c2))


def _trop_projective_key(terms):
    """Tropical int relation terms up to a common shift of their values."""
    shift = min(v for _, v in terms)
    return tuple((m, v - shift) for m, v in terms)


def _arrow_pairs(rep: QuiverRepresentation):
    """(I, J) pairs, or (cocircuit, circuit) pairs, walked for all arrows:
    C(n, r-1) * C(n, s+1) for an arrow from rank r to rank s."""
    return sum(subset_count(rep.n, rep.dim[a.src] - 1) * subset_count(rep.n, rep.dim[a.dst] + 1)
               for a in rep.arrows)


def _kept_relations(rep: QuiverRepresentation):
    """The defining relations of the quiver Dressian over ints, as
    all_relations keeps them and in its order: yields (kind, where, I, J,
    terms, exp_scale, coeff_scale), terms as _relations yields them, with
    exponents times exp_scale and coefficients times coeff_scale (None for
    the tropical layer).  The cap is checked at the first next(), counting
    every (I, J) pair.

    A vertex's relations walk only the pairs matroid._unrepeated keeps,
    inside _relations: not those whose terms cancel, nor three of the four
    copies of each three-term relation, which are the first up to sign.
    The rest have pairwise distinct monomials, so they skip the
    proportionality test; they still enter its buckets, where loop
    relations meet them.  A vertex of rank n has no pair and is not
    walked, so that n, which then no file bounds, is never walked either."""
    n, dim = rep.n, rep.dim
    pairs = sum(subset_count(n, dim[v] - 1) * subset_count(n, dim[v] + 1) for v in rep.vertices)
    check_walk("relation generation", pairs + _arrow_pairs(rep), "(I, J) pairs")
    exp_scale = _exp_scale(rep.arrows)
    sources = [("vertex", v, _relations(n, dim[v], dim[v], v, v, _identity_columns(n), _add,
                                        _unrepeated), 1) for v in rep.vertices if dim[v] < n]
    sources += [("arrow", a_idx) + _arrow_relations(rep, a_idx, exp_scale)
                for a_idx in range(len(rep.arrows))]
    seen_classical = {}  # monomial support -> classical relations kept
    seen_tropical = set()
    for kind, where, relations, coeff_scale in sources:
        for i_set, j_set, terms in relations:
            if coeff_scale is not None:
                # keyed by the relation's monomials, the first column of its terms
                bucket = seen_classical.setdefault(next(zip(*terms)), [])
                if kind == "arrow" and any(_proportional(prev, terms) for prev in bucket):
                    continue
                bucket.append(terms)
            else:
                key = _trop_projective_key(terms)
                if key in seen_tropical:
                    continue
                seen_tropical.add(key)
            yield kind, where, i_set, j_set, terms, exp_scale, coeff_scale


def all_relations(rep: QuiverRepresentation):
    """Every defining relation of the quiver Dressian: the vertex
    Grassmann-Pluecker relations plus the per-arrow quiver Pluecker
    relations, deduplicated (classically up to scalar, tropically up to a
    projective shift).  Vacuous relations are never generated.

    Relations are generated and compared over ints (_kept_relations), with
    one exponent scale for the whole call, since relations of different
    arrows and vertices are compared with each other; scaling is a
    bijection, so both equivalences are unchanged.  Puiseux and tropical
    objects are built only for the relations kept.

    Returns a list of dicts with keys kind, where, I, J, classical,
    tropical.  Raises CapacityError, before any matrix is scaled, when more
    than RELATION_CAP (I, J) pairs would be walked: C(n, r-1) * C(n, r+1)
    for a vertex of rank r, plus the pairs of every arrow (_arrow_pairs).
    """
    out = []
    caches = {}  # coefficient scale -> _convert's cache
    for kind, where, i_set, j_set, terms, exp_scale, coeff_scale in _kept_relations(rep):
        classical, tropical = _convert(terms, exp_scale, coeff_scale,
                                       caches.setdefault(coeff_scale, {}))
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


def _incidence_holds(a, mu, nu):
    """Does matroid._incidence_failure accept an arrow between two distinct
    vertices, given its tropical or field matrix?  It decides only where
    val(a) is the identity, rank(mu) <= rank(nu) and both supports are
    full, and needs nu's exchange axiom, which the vertex stage of every
    caller (qdr_membership, qdr_membership_via_containment,
    qdr_cross_check) has proved first.  On the identity both routes' walks
    are this one test, since each target index i has one term, at j = i.
    False where it does not apply and on a rejection: the arrow's walk then
    decides, and names the certificate."""
    return (mu.r <= nu.r and _full(mu) and _full(nu)
            and a._val_is_identity() and not _incidence_failure(mu, nu))


def _relation_failure(rep: QuiverRepresentation, mus):
    """The relation route's arrow stage: the first ("relation", arrow, I, J)
    whose tropical quiver Pluecker relation has a unique finite minimum, or
    None.  Arrows between distinct vertices go through the integer walk,
    counting every term, unless _incidence_holds; loops through the
    generator's merged int terms."""
    check_walk("membership by relations", _arrow_pairs(rep), "(I, J) pairs")
    for a_idx, arrow in enumerate(rep.arrows):
        if arrow.src != arrow.dst:
            a, mu, nu = arrow.trop or arrow.field, mus[arrow.src], mus[arrow.dst]
            if _incidence_holds(a, mu, nu):
                continue
            hit = _unique_minimum(a._finite_entries(), mu, nu, grouped=False)
            if hit is not None:
                return "relation", a_idx, hit[0][0], hit[1][0]
            continue
        exp_scale = _exp_scale([arrow])
        relations, coeff_scale = _arrow_relations(rep, a_idx, exp_scale)
        values = _fractions(mus[arrow.src])
        for i_set, j_set, terms in relations:
            finite = [Fraction(c if coeff_scale is None else c[0][0], exp_scale)
                      + values[left] + values[right]
                      for ((_, left), (_, right)), c in terms
                      if left in values and right in values]
            if finite and finite.count(min(finite)) == 1:
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
    terms can be one monomial, so loops are evaluated the same way on the
    generator's merged int terms.  The vertex stage runs first, so an
    identity arrow between full-support matroids can be decided by
    _incidence_holds, which needs nu's exchange axiom.  Returns (bool,
    certificate).
    """
    cert = _matroid_failure(rep, mus) or _relation_failure(rep, mus)
    return cert is None, cert


def qdr_membership_via_containment(rep: QuiverRepresentation, mus):
    """Quiver-Dressian membership by per-arrow containment of tropical
    linear spaces; independent of (and cross-tested against) the
    relation-vanishing route.  Its vertex stage, too, runs before any arrow
    (see _incidence_holds)."""
    cert = _matroid_failure(rep, mus) or _containment_failure(rep, mus)
    return cert is None, cert


def _containment_failure(rep: QuiverRepresentation, mus):
    """The containment route's arrow stage: the first
    ("containment", arrow, (cocircuit, circuit)), or None.  An arrow
    between distinct vertices that _incidence_holds skips containment_check."""
    check_walk("membership by containment", _arrow_pairs(rep), "(cocircuit, circuit) pairs")
    for a_idx, arrow in enumerate(rep.arrows):
        a, mu, nu = arrow.trop or arrow.field, mus[arrow.src], mus[arrow.dst]
        if arrow.src != arrow.dst and _incidence_holds(a, mu, nu):
            continue
        ok, cert = containment_check(a, mu, nu)
        if not ok:
            return "containment", a_idx, cert
    return None


def qdr_cross_check(rep: QuiverRepresentation, mus):
    """Both membership routes with one vertex stage: the relation route's
    and the containment route's (bool, certificate) pairs, as
    qdr_membership and qdr_membership_via_containment return them.  The
    vertex stage runs before either arrow stage (see _incidence_holds)."""
    failed = _matroid_failure(rep, mus)
    relation = failed or _relation_failure(rep, mus)
    containment = failed or _containment_failure(rep, mus)
    return (relation is None, relation), (containment is None, containment)


def is_subrepresentation(rep: QuiverRepresentation, candidate):
    """Do the candidate row spans form a quiver subrepresentation?

    candidate maps each vertex to a full-row-rank d_i x n field matrix
    (else UsageError, at a vertex no arrow touches after the arrows).
    Returns (bool, violating_arrow_index or None).
    """
    a_idx, _, _ = _arrow_failure(rep, candidate)
    return a_idx is None, a_idx


def _arrow_failure(rep: QuiverRepresentation, candidate):
    """is_subrepresentation's checks in order (shapes, each arrow's
    containment, each vertex's rank) on one _scaled_system of the field
    layers and the candidate.  Returns (the first arrow not contained or
    None, N, {vertex: (rows, memo)})."""
    if set(candidate) != set(rep.vertices):
        raise UsageError("candidate must be keyed by exactly the vertices")
    for v in rep.vertices:
        m = candidate[v]
        if m.n_rows != rep.dim[v] or m.n_cols != rep.n:
            raise UsageError(
                "candidate at %r must be %dx%d" % (v, rep.dim[v], rep.n)
            )
    fields = {a_idx: a.field for a_idx, a in enumerate(rep.arrows) if a.field is not None}
    exp_scale, rows = _scaled_system([*fields.values()] + [candidate[v] for v in rep.vertices])
    maps = dict(zip(fields, rows))
    scaled = {v: (r, {(): {0: 1}}) for v, r in zip(rep.vertices, rows[len(fields) :])}
    for a_idx, arrow in enumerate(rep.arrows):
        rep.field_matrix(a_idx)  # raises UsageError if the arrow has no field layer
        if not _contained(maps[a_idx], *scaled[arrow.src], *scaled[arrow.dst]):
            return a_idx, exp_scale, scaled
    for v in rep.vertices:
        _check_rank(*scaled[v], "candidate at %r must have full row rank" % (v,))
    return None, exp_scale, scaled


def trop_qgr_witness_check(rep: QuiverRepresentation, mus, witness):
    """Does the witness certify the matroid tuple as a point of the
    tropicalized quiver Grassmannian?  The witness must be a quiver
    subrepresentation whose Pluecker valuations reproduce each matroid
    projectively.  Returns (bool, certificate).

    Each vertex's valuations are read off its _arrow_failure memo, which
    holds a target's maximal minors as subminors of its stacked images."""
    _validate_tuple(rep, mus)
    a_idx, exp_scale, scaled = _arrow_failure(rep, witness)
    if a_idx is not None:
        return False, ("subrepresentation", a_idx)
    for v in rep.vertices:
        if not tls_equal(_valuations(scaled[v][0], rep.n, exp_scale, scaled[v][1]), mus[v]):
            return False, ("valuation-mismatch", v)
    return True, None


def flag_mode_check(mus_by_rank):
    """Flag-of-matroids check: consecutive quotient conditions along a
    strictly rank-increasing sequence.  Equals quiver-Dressian membership
    for the identity-arrow chain quiver, and each quotient_check decides
    that chain's arrow as the relation route does: by the incidence kernel
    on full supports whose upper matroid passes its three-term check, else
    by the relation walk, unless its pairs of bases are fewer.  Returns
    (bool, certificate), the certificate an exchange triple."""
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
