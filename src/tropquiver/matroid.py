"""Valuated matroids: exchange-axiom checking, circuits, cocircuits,
tropical-linear-space membership and containment, quotients, and deletion
and restriction minors (restriction in one pass over the bases).

Ground sets are {1, ..., n}.  From construction on, a matroid holds its
finite basis values exactly (absent subsets are infinite; affine
constructions care about the actual values) as _at, {bitmask: int}, the
values times _scale, the lcm of their denominators: the form every kernel
walks.  Comparisons that are only meaningful projectively normalize on the
fly.  The exchange axiom is *not* enforced at construction: wrap a
candidate table and interrogate it with :func:`is_valuated_matroid`.  One
walk decides membership, the exchange axiom and quotients: is the minimum
of val(A_ij) + c_j + C_i, over a cocircuit-side c and a circuit-side C,
attained twice, counting every term (relations, and under the identity the
exchange axiom and quotients) or each target index i once
(containment_check, whose circuit half is tls_membership, and circuits,
cocircuits)?  Two local kernels replace that walk where both supports are
full, building no vector: the exchange axiom of one matroid is decided by
its three-term relations (_three_term_failure), and a quotient, or an
identity arrow of quiver's membership routes, by one scan of the bases of
nu / I per cocircuit of mu (_incidence_failure), once nu is known to be a
valuated matroid.  On any other support one matroid walks each relation
once (_unrepeated).  The exchange loop over pairs of finite bases names
the certificate of a rejection and decides sparse tables, whose pairs of
bases are fewer than their relations.  Every walk over subsets, or pairs of
subsets or bases, is counted before it starts, against WALK_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, lcm

from .errors import CapacityError, NotAMatroidError, ShapeError, UsageError
from .trop import INF, TropValue, TropVector


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

    __slots__ = ("n", "r", "_scale", "_at")
    n: int
    r: int
    _scale: int
    _at: dict

    def __init__(self, n, r, values):
        if n < 1 or r < 0 or r > n:
            raise UsageError("need 0 <= r <= n and n >= 1, got r=%s n=%s" % (r, n))
        finite, seen = {}, set()
        for subset, value in dict(values).items():
            subset = _subset(subset)
            if len(subset) != r:
                raise UsageError("subset %r does not have size %d" % (subset, r))
            if subset and (subset[0] < 1 or subset[-1] > n):
                raise UsageError("subset %r not inside [1..%d]" % (subset, n))
            mask = _mask(subset)
            if mask in seen:
                raise UsageError("subset %r is given two values" % (subset,))
            seen.add(mask)
            value = value if isinstance(value, (int, Fraction)) else TropValue(value).value
            if value is not None:
                finite[mask] = value
        if not finite:
            raise NotAMatroidError("no subset has a finite value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        scale = reduce(lcm, (x.denominator for x in finite.values()), 1)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_at", {b: x.numerator * (scale // x.denominator)
                                         for b, x in finite.items()})

    def value(self, subset) -> TropValue:
        subset = _subset(subset)
        x = self._at.get(_mask(subset)) if all(1 <= e <= self.n for e in subset) else None
        return INF if x is None else TropValue(Fraction(x, self._scale))

    def bases(self):
        """Finite-support subsets, i.e. the bases of the underlying matroid."""
        return sorted(_members(b, self.n) for b in self._at)

    def table(self):
        """Finite values as a subset -> TropValue dict."""
        return {_members(b, self.n): TropValue(Fraction(x, self._scale))
                for b, x in self._at.items()}

    def subsets(self):
        return combinations(range(1, self.n + 1), self.r)

    def __repr__(self):
        vals = ", ".join("%s:%r" % ("".join(map(str, b)) or "{}", v)
                         for b, v in sorted(self.table().items()))
        return "ValuatedMatroid(n=%d, r=%d, {%s})" % (self.n, self.r, vals)


def uniform_matroid(n, r) -> ValuatedMatroid:
    """The trivially valued uniform matroid: every r-subset has value 0."""
    return ValuatedMatroid(n, r, {b: 0 for b in combinations(range(1, n + 1), r)})


def is_valuated_matroid(m: ValuatedMatroid):
    """Check of the tropical exchange axiom: for bases I, J and i in I - J
    some j in J - I has m(I - i + j) + m(J - j + i) <= m(I) + m(J).

    Returns (True, None) or (False, (I, J, i)) with the lexicographically
    least violating triple.  An infinite left-hand side satisfies the
    axiom for free.  The axiom holds exactly when every tropical
    Grassmann-Pluecker relation of m attains its minimum twice, and on a
    support that is a matroid when every three-term one does.  The
    relations decide it unless the pairs of bases are fewer; see
    _exchange_violation.
    """
    witness = _exchange_violation(m, m)
    return witness is None, witness


def _exchange_violation(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """The lexicographically least (I, J, i) with i in I - J and
    mu(I) + nu(J) < mu(I - i + j) + nu(J - j + i) for every j in J - I, or
    None.

    Violations and failing incidence relations are in bijection.  Take
    (I, J, i) with i in I - J and mu(I) + nu(J) finite.  Relation
    (I - i, J + i) ranges over j in (J - I) + {i}, and its term at j = i
    is mu(I) + nu(J); its minimum is attained twice exactly when some j in
    J - I has mu(I - i + j) + nu(J - j + i) <= mu(I) + nu(J), the exchange
    condition.  Conversely a unique finite minimum of relation (I', J') at
    j0 is the violating triple (I' + j0, J' - j0, j0).  So the relation
    walk of the identity arrow (_unique_minimum, not grouped) decides on
    any tables; the two walks differ only in order.  When mu is nu it
    walks only the pairs _unrepeated keeps (700 of 1960 at n = 8, rank 3
    or 5); the others hold on every table or repeat a pair walked before.
    When mu is nu and its support is full, the uniform matroid, the
    three-term relations alone decide (_three_term_failure: 280
    comparisons at n = 8, rank 3 or 5), and no vector is built.  When mu
    is not nu, rank(mu) <= rank(nu), both supports are full and the
    three-term relations prove nu a valuated matroid, the incidence
    relations are decided per cocircuit of mu (_incidence_failure: 560
    values of nu at n = 8, ranks (3, 5), against 784 relation pairs).

    The pairs of finite bases are counted against WALK_CAP first.  When
    the relation pairs, C(n, r - 1) * C(n, s + 1), are fewer, as they are
    on every full support (C(n, r)^2 > C(n, r - 1) * C(n, r + 1)), the
    relations decide, and only a rejection runs the exchange loop, for the
    certificate; a rejection without a violating triple, whichever of the
    three decided, is a fault of the program and raises RuntimeError.
    Otherwise the exchange loop decides.  It walks only pairs of finite
    bases (an infinite left-hand side never violates), in sorted order,
    which is the order of combinations.

    Each of the two subset counts is at most their product unless one is 0
    (rank(mu) = 0 or rank(nu) = n), when there is no relation and no triple
    and the relation walk returns at once; so the pairs of bases bound
    every subset the relation walk builds.  The choice weighs a relation
    pair and a pair of bases alike, skipped pairs counted too, which is a
    balance, not a cost: on an accepting table a relation pair is the
    cheaper, but a rejection runs both walks, so at equal counts the
    relation walk gains on an accept about what it loses on a rejection.
    """
    base_pairs = len(mu._at) * len(nu._at)
    check_walk("exchange check", base_pairs, "pairs of bases")
    by_relations = subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1) < base_pairs
    if by_relations:
        if mu is nu and _full(mu):
            failing = _three_term_failure(mu)
        elif mu.r <= nu.r and _full(mu) and _full(nu) and not _three_term_failure(nu):
            failing = _incidence_failure(mu, nu)
        else:
            failing = _unique_minimum(_identity_entries(mu.n), mu, nu, grouped=False,
                                      pick=_unrepeated if mu is nu else None) is not None
        if not failing:
            return None
    _, (mu_at, nu_at) = _int_tables((mu, nu))
    left, right = (sorted((_members(b, m.n), b, x) for b, x in at.items())
                   for m, at in ((mu, mu_at), (nu, nu_at)))
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
    if by_relations:
        raise RuntimeError("a relation fails but no exchange triple is violated")
    return None


# The kernels below encode subsets as bitmasks and values as ints: every
# value is scaled by the lcm of all denominators in play, which keeps each
# sum and comparison exact.

def _mask(subset):
    return sum(1 << e for e in subset)


def _members(mask, n):
    return tuple(e for e in range(1, n + 1) if mask >> e & 1)


def _fractions(m: ValuatedMatroid):
    """m's finite values as a subset -> Fraction dict, in stored order."""
    return {_members(b, m.n): Fraction(x, m._scale) for b, x in m._at.items()}


def _int_tables(matroids, extra=()):
    """The lcm of the matroids' scales and of the denominators of the extra
    Fractions, and each matroid's finite table as {bitmask: int} scaled by
    it: the matroid's own table, not a copy, where the scales agree."""
    scale = reduce(lcm, [m._scale for m in matroids] + [x.denominator for x in extra], 1)
    return scale, [m._at if m._scale == scale else
                   {b: x * (scale // m._scale) for b, x in m._at.items()}
                   for m in matroids]


def _full(m: ValuatedMatroid):
    """Is every r-subset a basis of m (the uniform matroid)?"""
    return len(m._at) == subset_count(m.n, m.r)


def _identity_entries(n):
    """The finite entries of the n x n identity, as _unique_minimum reads
    val(A): the (e, e, 0)."""
    return [(e, e, 0) for e in range(1, n + 1)]


def _unrepeated(i_mask, items):
    """The items, each (J, J's bitmask, ...), whose relation (I, J) of one
    matroid under the identity neither holds on every table nor repeats an
    earlier one.  With A = I - J and B = J - I its terms are
    m(I + b) + m(J - b), b in B.  For A empty the two terms are equal.  For
    A = {a} they are those of the three-term relation of I & J and A + B,
    as for each of the four choices of a in A + B; the first in walk order,
    a < min(B), is kept.  For |A| >= 2 the monomials determine
    (I & J, A, B), so no two such relations share them."""
    # d is A: keep |A| >= 2, or A = {a} with no element of B below a
    return [t for t in items if (d := i_mask & ~t[1]) & (d - 1) or not t[1] & ~i_mask & (d - 1)]


def _three_term_failure(m: ValuatedMatroid):
    """Does some three-term relation of m, whose support is full, have a
    unique minimum?  For an (r - 2)-subset S and a < b < c < d outside it
    the terms are m(Sab) + m(Scd), m(Sac) + m(Sbd) and m(Sad) + m(Sbc), all
    finite.  On a support that is a matroid, as a full one is (the uniform
    matroid), the table is a valuated matroid exactly when no three-term
    relation fails (the local exchange theorem: Dress-Wenzel, "Valuated
    matroids", 1992; Speyer, "Tropical linear spaces", 2008).  Ranks 0, 1,
    n - 1 and n have no such relation.

    Complements map the three-term relations of m onto those of its dual,
    the (n - r)-subsets valued m(E - B), with the same three sums; so for
    2r > n the walk takes the dual's (n - r - 2)-subsets S, fewer, and
    reads m at the complements of Sab, ..., Sbc."""
    at, bits = m._at, [1 << e for e in range(1, m.n + 1)]
    k, flip = (m.r - 2, 0) if 2 * m.r <= m.n else (m.n - m.r - 2, sum(bits))
    for s_bits in combinations(bits, k) if k >= 0 else ():
        s = sum(s_bits)
        base = s ^ flip  # S, or for the dual the complement of S
        for a, b, c, d in combinations([e for e in bits if not s & e], 4):
            x = at[base ^ (a | b)] + at[base ^ (c | d)]
            y = at[base ^ (a | c)] + at[base ^ (b | d)]
            z = at[base ^ (a | d)] + at[base ^ (b | c)]
            if x < y and x < z or y < x and y < z or z < x and z < y:
                return True
    return False


def _incidence_failure(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Does some incidence relation of mu and nu under the identity, the
    minimum over j in J - I of mu(I + j) + nu(J - j) for |I| = r - 1 and
    |J| = s + 1, have a unique minimum?  Both supports must be full,
    r = rank(mu) <= s = rank(nu), and nu a valuated matroid; mu may be any
    table.

    Fix I.  The relations (I, J) over all J hold exactly when the cocircuit
    c_I = mu(I + .) lies in trop(nu).  c_I is infinite exactly on I, so that
    holds exactly when its finite part lies in trop(nu / I), whose bases
    are the (s - r + 1)-subsets B of E - I valued nu(I + B); and that holds
    exactly when the initial matroid of nu / I at that point has no loop
    (Speyer, "Tropical linear spaces", 2008): when the B minimizing
    nu(I + B) - sum of c_I over B cover E - I.  No vector is built: at
    n = 8, ranks (3, 5), the walk reads 28 * 20 = 560 values of nu, where
    the relation walk visits 784 pairs.  Without the precondition on nu the
    criterion and the relations can disagree."""
    n, r, k = mu.n, mu.r, nu.r - mu.r + 1
    if not r or nu.r == n:
        return False  # no relation
    _, (mu_at, nu_at) = _int_tables((mu, nu))
    bits = [1 << e for e in range(1, n + 1)]
    ground = sum(bits)
    for i_bits in combinations(bits, r - 1):
        i = sum(i_bits)
        rest = [e for e in bits if not i & e]
        low = cover = None
        for b_bits, c_values in zip(combinations(rest, k),
                                    combinations([mu_at[i | e] for e in rest], k)):
            b = sum(b_bits)
            t = nu_at[i | b] - sum(c_values)
            if cover is None or t < low:
                low, cover = t, b
            elif t == low:
                cover |= b
        if cover != ground ^ i:
            return True
    return False


def _subset_vectors(n, size, at, members, grouped):
    """(S, mask, vector) for each size-subset S of [n] in combinations
    order, the vector as the dict of its finite entries, from a matroid as
    {bitmask: int}: with members, the circuit C_i = m(S - i) at i in S
    (size r + 1); without, the cocircuit c_j = m(S + j) at j outside S
    (size r - 1).  Empty vectors are dropped.  grouped keeps one vector per
    projective class, the first S's, sorted by raw entries with infinity
    last: the order of circuits() and cocircuits()."""
    ground = range(1, n + 1)
    bits = [1 << e for e in ground]
    out = []
    for s, s_bits in zip(combinations(ground, size), combinations(bits, size)) if size >= 0 else ():
        mask = sum(s_bits)
        if members:
            vec = {e: at[b] for e in s if (b := mask ^ 1 << e) in at}
        else:
            vec = {e: at[b] for e in ground if not mask >> e & 1 and (b := mask | 1 << e) in at}
        if vec:
            out.append((s, mask, vec))
    if grouped:
        classes = {}  # projective class -> its first (S, mask, vector)
        for s, mask, vec in out:
            low = min(vec.values())
            classes.setdefault(tuple((e, x - low) for e, x in vec.items()), (s, mask, vec))
        out = sorted(classes.values(), key=lambda item: tuple(
            (0, item[2][e]) if e in item[2] else (1, 0) for e in ground))
    return out


def _unique_minimum(entries, mu: ValuatedMatroid, nu: ValuatedMatroid, grouped, pick=None):
    """The first pair, in walk order, of a cocircuit-side vector c_I of mu
    and a circuit-side vector C_J of nu whose terms val(A_ij) + c_j + C_i
    have a finite minimum attained once, as ((I, c_I), (J, C_J)) with
    TropVectors, or None.  entries are val(A)'s finite entries as 1-based
    (i, j, rational) triples: a TropMatrix's or a FieldMatrix's
    _finite_entries(), or the identity's (e, e, 0).

    Without grouped these are the terms of the quiver Pluecker relation
    (I, J) of an arrow between two distinct vertices: every term counts,
    and every I and J is walked in combinations order.  With grouped each
    target index i counts once, and the vectors are those of cocircuits()
    and circuits(), in their order: the test of the image val(A) (.) c*
    against nu's circuits.  For each I the terms are grouped by i into
    (minimum over j, how many j attain it); each J then combines the groups
    of its entries in O(|J|).  pick, given I's bitmask and the circuit
    side, returns the J walked with that I: _exchange_violation passes
    _unrepeated when mu is nu and its support is not full (a full one goes
    to _three_term_failure instead).
    """
    if not subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1):
        return None  # rank(mu) = 0 or rank(nu) = n: no pair, so no vector is built
    scale, (mu_at, nu_at) = _int_tables((mu, nu), [x for _, _, x in entries])
    columns = {}
    for i, j, x in entries:
        columns.setdefault(j, []).append((i, x.numerator * (scale // x.denominator)))
    targets = _subset_vectors(nu.n, nu.r + 1, nu_at, members=True, grouped=grouped)
    for i_set, i_mask, c in _subset_vectors(mu.n, mu.r - 1, mu_at, members=False,
                                             grouped=grouped):
        best = {}  # i -> [min over j of A_ij + c_j, how many j attain it]
        for j, x in c.items():
            for i, a_ij in columns.get(j, ()):
                t = a_ij + x
                b = best.get(i)
                if b is None or t < b[0]:
                    best[i] = [t, 1]
                elif t == b[0] and not grouped:
                    b[1] += 1
        if not best:
            continue
        for j_set, _, circ in targets if pick is None else pick(i_mask, targets):
            low, count = None, 0
            for i, y in circ.items():
                b = best.get(i)
                if b is not None:
                    t = b[0] + y
                    if low is None or t < low:
                        low, count = t, b[1]
                    elif t == low:
                        count += b[1]
            if count == 1:
                return ((i_set, _trop_vector(mu.n, c, scale)),
                        (j_set, _trop_vector(nu.n, circ, scale)))
    return None


def containment_check(a, mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Is val(A) (.) trop(mu) contained in trop(nu)?  A is a TropMatrix, or
    a puiseux.FieldMatrix standing for its valuation.

    The image is tropically generated by the images of mu's cocircuits, so
    it suffices to test each image against nu's circuits, in the walk that
    counts each target index once.  Returns (bool, (cocircuit,
    violating_circuit) or None).
    """
    if mu.n != nu.n:
        raise ShapeError("matroids live on different ground sets")
    if a.n_rows != nu.n or a.n_cols != mu.n:
        raise ShapeError("matrix shape does not match the ground sets")
    check_walk("containment check",
               subset_count(mu.n, mu.r - 1) * subset_count(nu.n, nu.r + 1),
               "(cocircuit, circuit) pairs")
    hit = _unique_minimum(a._finite_entries(), mu, nu, grouped=True)
    if hit is None:
        return True, None
    return False, (hit[0][1], hit[1][1])


def _trop_vector(n, vec, scale):
    """The TropVector of an int vector as _subset_vectors builds it."""
    return TropVector(tuple(Fraction(vec[e], scale) if e in vec else INF
                            for e in range(1, n + 1)))


def _vectors(m: ValuatedMatroid, size, what, members):
    check_walk(what, subset_count(m.n, size))
    return [_trop_vector(m.n, vec, m._scale)
            for _, _, vec in _subset_vectors(m.n, size, m._at, members, grouped=True)]


def circuits(m: ValuatedMatroid):
    """Valuated circuits, projectively deduplicated."""
    return _vectors(m, m.r + 1, "circuit enumeration", members=True)


def cocircuits(m: ValuatedMatroid):
    """Valuated cocircuits, projectively deduplicated."""
    return _vectors(m, m.r - 1, "cocircuit enumeration", members=False)


def tls_membership(m: ValuatedMatroid, x: TropVector):
    """Does x lie in the tropical linear space of m?

    Checks the min-attained-twice condition against every circuit;
    returns (bool, violating_circuit_or_None).  x is the one cocircuit of
    the rank-1 matroid with values x, whose tropical linear space is x, so
    this is the circuit half of containment_check of that matroid under
    the identity, walked on the identity's entries without building it.
    The all-infinite x is a member, though no rank-1
    matroid has its values: each of its circuit terms is infinite, and an
    infinite minimum counts as attained twice (trop.min_attained_twice).
    trop_span_membership(..., projective=True) raises DegeneratePointError
    on it instead, because it asks about projective points.
    """
    if len(x) != m.n:
        raise ShapeError("point has length %d, ground set has size %d" % (len(x), m.n))
    check_walk("circuit enumeration", subset_count(m.n, m.r + 1))
    if x.is_all_inf:
        return True, None  # every term is infinite
    point = ValuatedMatroid(m.n, 1, {(i,): e.value for i, e in enumerate(x, 1) if e.is_finite})
    hit = _unique_minimum(_identity_entries(m.n), point, m, grouped=True)
    return hit is None, None if hit is None else hit[1][1]


def quotient_check(mu: ValuatedMatroid, nu: ValuatedMatroid):
    """Is mu a valuated matroid quotient of nu (rank(mu) <= rank(nu))?

    Returns (bool, violating (I, J, i) triple or None): the least triple
    with i in I - J and mu(I) + nu(J) < mu(I - i + j) + nu(J - j + i) for
    every j in J - I.  Equivalently, every incidence relation, the minimum
    over j in J - I of mu(I + j) + nu(J - j) for |I| = rank(mu) - 1 and
    |J| = rank(nu) + 1, is attained twice; the relation walk decides that,
    or on full supports with nu a valuated matroid the incidence kernel,
    unless the pairs of bases are fewer (see _exchange_violation).
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
    return ValuatedMatroid(m.n + 1, m.r, _fractions(m))


def restrict_table(m: ValuatedMatroid, keep):
    """Restriction of m to a label subset, as (rank, {subset: Fraction}),
    keys in the original labels; used by the affine-induced construction.

    Deleting the elements outside keep in increasing order keeps, at each,
    the bases avoiding it if any does, and otherwise every basis with it
    dropped (a coloop).  So the survivors are the bases whose membership
    vector on the deleted elements (in that order, False before True) is
    lexicographically least, each without those elements.  That holds on
    any table, matroid or not, and the table's order is kept.
    """
    keep = set(keep)
    deleted = [e for e in range(1, m.n + 1) if e not in keep]
    vectors = {b: (tuple(e in b for e in deleted), v) for b, v in _fractions(m).items()}
    least = min(vec for vec, _ in vectors.values())
    return m.r - sum(least), {tuple(x for x in b if x in keep): v
                              for b, (vec, v) in vectors.items() if vec == least}


def delete(m: ValuatedMatroid, e) -> ValuatedMatroid:
    """Deletion minor m \\ e, with elements above e shifted down by one.

    If some finite basis avoids e the rank is preserved; if e is a coloop
    of the underlying matroid the rank drops by one and bases through e
    survive with e removed.
    """
    if not 1 <= e <= m.n:
        raise UsageError("element %r not in ground set" % (e,))
    rank, table = restrict_table(m, set(range(1, m.n + 1)) - {e})
    relabel = lambda x: x if x < e else x - 1
    return ValuatedMatroid(
        m.n - 1, rank, {tuple(relabel(x) for x in b): v for b, v in table.items()}
    )


def tls_equal(mu: ValuatedMatroid, nu: ValuatedMatroid) -> bool:
    """Tropical-linear-space equality: equal ranks and projectively equal
    basis-value tables: the int tables differ by one constant."""
    if mu.n != nu.n:
        raise ShapeError("ground sets differ")
    _, (a, b) = _int_tables((mu, nu))
    return mu.r == nu.r and a.keys() == b.keys() and len({x - b[k] for k, x in a.items()}) == 1
