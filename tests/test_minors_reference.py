"""The one-pass restriction and the directly built induced matroid against
the routines they replaced.

``reference_delete_from_table``, ``reference_restrict_table``,
``reference_delete``, ``reference_affine_induced`` and
``reference_affine_induced_unpointed`` are the former
``_delete_from_table``, ``restrict_table``, ``delete``, ``affine_induced``
and ``affine_induced_unpointed``, kept verbatim: restriction deletes one
element at a time, and the unpointed induced matroid is the pointed one
with its origin loop deleted.  The library must return the same rank, the
same keys and values in the same dict order, or raise the same exception,
on every input, matroid or not.
"""

import random
from fractions import Fraction
from itertools import combinations

from tropquiver import (
    INF,
    GroundSetMap,
    ValuatedMatroid,
    affine_induced,
    affine_induced_unpointed,
    delete,
    is_valuated_matroid,
)
from tropquiver.errors import ShapeError, TropquiverError, UsageError
from tropquiver.matroid import check_walk, restrict_table, subset_count

O = 0


def reference_delete_from_table(table, labels, e):
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


def reference_restrict_table(m: ValuatedMatroid, keep):
    """Restriction of m to a label subset via iterated deletion minors.

    Returns (rank, table) where the table keys still use the original
    labels.  Used by the affine-induced construction.
    """
    keep = set(keep)
    table = m.table()
    labels = list(range(1, m.n + 1))
    for e in range(1, m.n + 1):
        if e not in keep:
            table, labels = reference_delete_from_table(table, labels, e)
    rank = len(next(iter(table)))
    return rank, table


def reference_delete(m: ValuatedMatroid, e) -> ValuatedMatroid:
    """Deletion minor m \\ e, with elements above e shifted down by one.

    If some finite basis avoids e the rank is preserved; if e is a coloop
    of the underlying matroid the rank drops by one and bases through e
    survive with e removed.
    """
    if not 1 <= e <= m.n:
        raise UsageError("element %r not in ground set" % (e,))
    table, _ = reference_delete_from_table(m.table(), list(range(1, m.n + 1)), e)
    rank = len(next(iter(table)))
    relabel = lambda x: x if x < e else x - 1
    return ValuatedMatroid(
        m.n - 1, rank, {tuple(relabel(x) for x in b): v for b, v in table.items()}
    )


def reference_affine_induced(nu: ValuatedMatroid, f: GroundSetMap) -> ValuatedMatroid:
    """The affine induced valuated matroid of f against nu, as a pointed
    matroid on [n] u {o} with o stored at position n+1.

    The target matroid is restricted to the image of f1; a basis B gets
    the restricted value at f1(B) plus the sum of the shifts f2(i) over B.
    Bases on which f1 is not injective, or which touch o (directly or via
    f1), are valued infinity.
    """
    if f.n != nu.n:
        raise ShapeError("map and matroid ground sets differ")
    image = {f.f1[i] for i in range(1, f.n + 1) if f.f1[i] != O}
    rank, table = reference_restrict_table(nu, image)
    check_walk("affine induction", subset_count(f.n, rank))
    o_pos = f.n + 1
    values = {}
    for basis in combinations(range(1, f.n + 1), rank):
        targets = [f.f1[i] for i in basis]
        if O in targets or len(set(targets)) != len(targets):
            continue
        base_val = table.get(tuple(sorted(targets)), INF)
        if base_val.is_inf:
            continue
        total = base_val
        for i in basis:
            total = total + f.f2[i]
        if total.is_finite:
            values[basis] = total
    # every basis through o stays infinite: o is a loop
    return ValuatedMatroid(o_pos, rank, values)


def reference_affine_induced_unpointed(nu: ValuatedMatroid, f: GroundSetMap) -> ValuatedMatroid:
    """The affine induced matroid with the origin loop removed."""
    ind = reference_affine_induced(nu, f)
    return reference_delete(ind, ind.n)


def exact(result):
    """A result with every dict as its list of items, so that equality
    also compares insertion order."""
    if isinstance(result, ValuatedMatroid):
        return "matroid", result.n, result.r, list(result.table().items())
    rank, table = result
    return rank, list(table.items())


def outcome(f, *args):
    """("ok", exact result) or ("raise", exception class, message)."""
    try:
        return "ok", exact(f(*args))
    except TropquiverError as exc:
        return "raise", type(exc), str(exc)


def rand_table(rng, n, r, density):
    """A random rank-r table on [n] in shuffled order, with at least one
    finite value; most are not valuated matroids."""
    subsets = list(combinations(range(1, n + 1), r))
    rng.shuffle(subsets)
    table = {b: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
             for b in subsets if rng.random() < density}
    if not table:
        table[subsets[0]] = Fraction(rng.randint(-4, 4))
    return ValuatedMatroid(n, r, table)


def rand_map(rng, n):
    """Targets in [n] or o, collisions allowed; shifts finite or infinite."""
    return GroundSetMap(n, {
        i: ("o", None) if rng.random() < 0.15
        else (rng.randint(1, n), None if rng.random() < 0.1 else rng.randint(-3, 3))
        for i in range(1, n + 1)})


def test_minors_and_induced_match_reference_on_random_tables():
    rng = random.Random(20240715)
    seen = set()
    for _ in range(5000):
        n = rng.randint(1, 7)
        m = rand_table(rng, n, rng.randint(0, n), rng.choice([0.2, 0.4, 0.6, 0.9]))
        keep = {e for e in range(1, n + 1) if rng.random() < 0.5}
        got = outcome(restrict_table, m, keep)
        assert got == outcome(reference_restrict_table, m, keep), (m, keep)
        e = rng.randint(0, n + 1)
        assert outcome(delete, m, e) == outcome(reference_delete, m, e), (m, e)
        f = rand_map(rng, n)
        for lib, ref in ((affine_induced, reference_affine_induced),
                         (affine_induced_unpointed, reference_affine_induced_unpointed)):
            assert outcome(lib, m, f) == outcome(ref, m, f), (m, f)
        if m.r == 0:
            seen.add("rank 0")
        if got[1][0] < m.r:
            seen.add("coloop")
        if n <= 5:
            seen.add("matroid" if is_valuated_matroid(m)[0] else "not a matroid")
    assert seen == {"rank 0", "coloop", "matroid", "not a matroid"}
