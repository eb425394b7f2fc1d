"""The relation walk against the one it replaced.

``_relations`` below is the previous walk of ``quiver._relations``, kept
verbatim.  It built each monomial as a nested tuple ((vertex, subset),
(vertex, subset)) per term, merged the terms under it, and read i in J and
the sign of each term off a per-J dict of sliced tuples and bisect_right.
The walk now ranks each factor once per call, merges under the int key of
two ranks, and reads i in J and the sign off bitmasks.  Both must yield the
same (I, J, terms) tuples in the same order, compared by repr: vertex names
that are equal but print differently (1 and True) must stay where the
previous walk put them, on the side each came from, in a merged monomial
as the term met first had them.
"""

import io
import random
from bisect import bisect_right
from collections import Counter
from itertools import combinations

import pytest

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    identity_chain_representation,
    jsonio,
    quiver,
)
from tropquiver.matroid import _mask, _unrepeated
from tropquiver.quiver import _add, _exp_scale, _identity_columns, _scaled_columns
from tropquiver.trop import INF

from helpers import rand_arrow, rand_scaled_arrow


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
    any term is built."""
    ground = range(1, n + 1)
    j_sets = [(j_set, _mask(j_set)) for j_set in combinations(ground, s + 1)]
    for i_set in combinations(ground, r - 1):
        i_mask = _mask(i_set)
        # per column j outside I: p_{I+j}, and the flips of sign(j;I,J)
        # counted inside I, plus |J| (the flips in J are |J| minus the
        # members of J up to j)
        lefts = [(j, (src, tuple(sorted(i_set + (j,)))), sum(i > j for i in i_set) + s + 1,
                  entries) for j, entries in columns if j not in i_set]
        for j_set, _ in j_sets if pick is None else pick(i_mask, j_sets):
            rights = {i: (dst, j_set[:k] + j_set[k + 1 :]) for k, i in enumerate(j_set)}
            acc = {}
            for j, left, flips, entries in lefts:
                odd = (flips - bisect_right(j_set, j)) & 1
                for i, entry in entries:
                    right = rights.get(i)
                    if right is not None:
                        mono = (right, left) if right < left else (left, right)
                        prev = acc.get(mono)
                        acc[mono] = entry[odd] if prev is None else merge(prev, entry[odd])
            terms = tuple(sorted(t for t in acc.items() if t[1] is not None))
            if terms:
                yield i_set, j_set, terms


def walks(*args):
    """repr of what the new walk and the kept one yield for args."""
    return repr(list(quiver._relations(*args))), repr(list(_relations(*args)))


# (source, target) names: distinct in both orders, one object, and equal
# names that are distinct objects, printing the same or not
NAMES = [("u", "w"), ("w", "u"), ("v", "v"), ("vx", "".join(["v", "x"])),
         (True, 1), (1, True)]


def test_arrows_match_reference():
    """One random arrow per n = 2..7, source rank r and target rank s, on
    the field layer (with cancelling coefficients) or the tropical one,
    under every pair of names."""
    rng = random.Random(20261021)
    seen = Counter()
    for n in range(2, 8):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                src, dst = NAMES[rng.randrange(len(NAMES))]
                arrow = (rand_arrow if rng.random() < 0.5 else rand_scaled_arrow)(rng, n, src, dst)
                columns, coeff_scale = _scaled_columns(arrow, _exp_scale([arrow]))
                merge = min if coeff_scale is None else _add
                new, old = walks(n, r, s, src, dst, columns, merge)
                assert new == old, (n, r, s, src, dst)
                seen["field" if coeff_scale else "tropical"] += 1
                seen[src == dst, src is dst, r == s] += new != "[]"
    assert seen["field"] >= 40 and seen["tropical"] >= 40, seen
    # loops and equal names that are no one object, with ranks equal and not
    assert all(seen[True, same, equal] >= 3 for same in (True, False)
               for equal in (True, False)), seen


def test_vertex_walks_match_reference():
    """The identity on one vertex, every rank at n = 2..7, with and
    without the pick of matroid._unrepeated."""
    for n in range(2, 8):
        for r in range(1, n + 1):
            for pick in (None, _unrepeated):
                new, old = walks(n, r, r, "v", "v", _identity_columns(n), _add, pick)
                assert new == old, (n, r, pick)


def rand_quivers(rng):
    """Two vertices u and w at n = 3..5 with two to four arrows: parallel
    ones, arrows in both directions and loops, ranks rising and falling."""
    out = []
    for _ in range(60):
        n = rng.randint(3, 5)
        dim = {"u": rng.randint(1, n), "w": rng.randint(1, n)}
        arrows = []
        for _ in range(rng.randint(2, 4)):
            src, dst = rng.choice("uw"), rng.choice("uw")
            arrows.append((rand_arrow if rng.random() < 0.5 else rand_scaled_arrow)(rng, n, src, dst))
            if rng.random() < 0.3:
                arrows.append(arrows[-1])  # a parallel copy
        out.append(QuiverRepresentation(n, ["u", "w"], arrows, dim))
    return out + [identity_chain_representation(7, [3, 5])]


def kept_and_dumped(rep):
    """repr of _kept_relations and the relations verdict's text."""
    kept = list(quiver._kept_relations(rep))
    out = io.StringIO()
    jsonio.dump(jsonio.relations_to_json(kept), out)
    return repr(kept), out.getvalue()


def test_kept_relations_and_verdict_match_reference(monkeypatch):
    reps = rand_quivers(random.Random(20261022))
    new = [kept_and_dumped(rep) for rep in reps]
    monkeypatch.setattr(quiver, "_relations", _relations)
    old = [kept_and_dumped(rep) for rep in reps]
    for rep, a, b in zip(reps, new, old):
        assert a == b, rep.arrows
    assert sum(text.count("monomial") for _, text in new) > 1000


def _field_diagonal(n):
    """diag(1, 2, ..., n) plus 1 at (1, n): distinct diagonal entries, so
    that a monomial met in both orders keeps a nonzero coefficient."""
    rows = [[PuiseuxElement.const(i + 1) if i == j else PuiseuxElement() for j in range(n)]
            for i in range(n)]
    rows[0][n - 1] = PuiseuxElement.const(1)
    return FieldMatrix(rows)


def test_equal_names_that_print_differently(monkeypatch):
    """Arrows True -> 1 and 1 -> True on vertex 1, which the quiver takes
    for loops: each factor prints true or 1 by the side it came from, and
    a monomial met in both orders keeps the order met first.  The verdict's
    text must be the previous walk's."""
    n = 4
    trop = TropMatrix([[i if i == j else INF for j in range(n)] for i in range(n)])
    rep = QuiverRepresentation(n, [1], [RepArrow(src=True, dst=1, field=_field_diagonal(n)),
                                        RepArrow(src=1, dst=True, trop=trop)], {1: 2})
    new = kept_and_dumped(rep)
    monkeypatch.setattr(quiver, "_relations", _relations)
    assert new == kept_and_dumped(rep)
    # both orders of the two names occur in the arrow relations
    arrows = [terms for kind, _, _, _, terms, _, _ in quiver._kept_relations(rep)
              if kind == "arrow"]
    orders = {tuple(repr(f[0]) for f in m) for terms in arrows for m, _ in terms}
    assert {("True", "1"), ("1", "True")} <= orders, orders


def test_names_that_do_not_compare():
    """Between vertex names that do not compare, the previous walk failed
    at its first term, and yielded nothing where there is none."""
    columns = _identity_columns(3)
    for src, dst in ((1, "a"), ("a", 1)):
        with pytest.raises(TypeError) as new:
            list(quiver._relations(3, 1, 2, src, dst, columns, _add))
        with pytest.raises(TypeError) as old:
            list(_relations(3, 1, 2, src, dst, columns, _add))
        assert str(new.value) == str(old.value)
        for n, r, s, cols in ((3, 1, 2, []), (3, 2, 3, columns)):
            assert walks(n, r, s, src, dst, cols, _add) == ("[]", "[]")
