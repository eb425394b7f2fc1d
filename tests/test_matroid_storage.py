"""A valuated matroid holds its finite values once, as ints over bitmasks
scaled by the lcm of their denominators.

The conversions back (value, table, bases, repr) and == must not depend on
the form the values came in.  Minors and induced matroids are built from
the stored values, without ``table()``.  ``reference_tls_equal`` is the previous
tls_equal, which normalized tables of TropValues, kept verbatim except that
it reads ``table()`` where it read the removed ``_finite`` dict; the library
compares int tables and must return the same verdicts.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tropquiver import (
    GroundSetMap,
    TropValue,
    ValuatedMatroid,
    add_loop,
    affine_induced,
    affine_induced_unpointed,
    delete,
    is_affine_morphism,
    tls_equal,
)
from tropquiver.errors import ShapeError, TropquiverError, UsageError
from tropquiver.matroid import _int_tables, restrict_table
from tropquiver.trop import trop_sum

F = Fraction

TABLES = [
    (3, 2, {(1, 2): F(1, 2), (1, 3): F(2, 3), (2, 3): F(-5, 6)}),
    (4, 2, {(1, 2): F(3), (1, 4): F(-1), (2, 3): F(0), (3, 4): F(7, 4), (2, 4): F(1, 10)}),
    (3, 0, {(): F(-1, 3)}),
    (4, 4, {(1, 2, 3, 4): F(-2)}),
    (5, 3, {(1, 2, 5): F(9, 8), (2, 3, 4): F(-7, 12), (1, 4, 5): F(2, 9), (3, 4, 5): F(0)}),
]


def variants(values):
    """The same table as Fractions, as TropValues, as ints where
    integral, with reversed subsets, and with its keys in reverse order."""
    out = [values, {b: TropValue(v) for b, v in values.items()},
           {tuple(reversed(b)): v for b, v in values.items()},
           dict(reversed(list(values.items())))]
    if all(v.denominator == 1 for v in values.values()):
        out.append({b: int(v) for b, v in values.items()})
    return out


def observed(m):
    """Everything the conversions back show, for comparison."""
    every = list(combinations(range(1, m.n + 1), m.r))
    return (m.n, m.r, m.table(), [m.value(s) for s in every], m.bases(), repr(m))


@pytest.mark.parametrize("n,r,values", TABLES, ids=lambda x: str(x)[:20])
def test_every_input_form_gives_one_matroid(n, r, values):
    ms = [ValuatedMatroid(n, r, v) for v in variants(values)]
    missing = next((s for s in combinations(range(1, n + 1), r) if s not in values), None)
    if missing is not None:  # a non-basis given as infinite, before and after the bases
        ms.append(ValuatedMatroid(n, r, {missing: None, **values}))
        ms.append(ValuatedMatroid(n, r, {**values, missing: TropValue(None)}))
    first = ms[0]
    assert first.table() == {b: TropValue(v) for b, v in values.items()}
    assert all(type(v.value) is Fraction for v in first.table().values())
    assert first.bases() == sorted(values)
    for m in ms[1:]:
        assert m == first
        assert observed(m) == observed(first)
    # derived matroids agree as well
    for m in ms[1:]:
        assert add_loop(m) == add_loop(first)
        assert observed(add_loop(m)) == observed(add_loop(first))
        for e in range(1, n + 1):
            if n > 1:
                assert delete(m, e) == delete(first, e)
                assert observed(delete(m, e)) == observed(delete(first, e))
            keep = set(range(1, n + 1)) - {e}
            assert restrict_table(m, keep) == restrict_table(first, keep)


def test_repr_and_value_of_mixed_denominators():
    n, r, values = TABLES[0]
    m = ValuatedMatroid(n, r, values)
    assert repr(m) == "ValuatedMatroid(n=3, r=2, {12:1/2, 13:2/3, 23:-5/6})"
    assert m.value((3, 1)) == TropValue(F(2, 3))
    assert m.value((0, 1)).is_inf and m.value((-1, 2)).is_inf and m.value((2, 9)).is_inf
    assert repr(ValuatedMatroid(3, 0, {(): F(-1, 3)})) == "ValuatedMatroid(n=3, r=0, {{}:-1/3})"


def test_equal_tables_are_equal_however_scaled():
    # 1/2 and 2/4 are one value; 1 and 1/1 too
    a = ValuatedMatroid(2, 1, {(1,): F(1, 2), (2,): 1})
    b = ValuatedMatroid(2, 1, {(2,): F(1, 1), (1,): F(2, 4)})
    assert a == b
    assert a != ValuatedMatroid(2, 1, {(1,): F(1, 2), (2,): F(3, 2)})
    assert a != ValuatedMatroid(3, 1, {(1,): F(1, 2), (2,): 1})


def test_int_tables_hand_back_the_stored_tables_when_scales_agree():
    mu = ValuatedMatroid(3, 1, {(1,): F(1, 6), (2,): F(1, 2)})
    nu = ValuatedMatroid(3, 2, {(1, 2): F(-1, 3), (2, 3): F(5, 6)})
    scale, (a, b) = _int_tables((mu, nu))
    assert scale == 6
    assert a is mu._at and b is nu._at
    # a third matroid of scale 5: every table is rescaled to 30, as copies
    other = ValuatedMatroid(3, 1, {(3,): F(2, 5)})
    scale, tables = _int_tables((mu, other))
    assert scale == 30
    assert all(t is not m._at for t, m in zip(tables, (mu, other)))
    assert tables[0] == {0b10: 5, 0b100: 15} and mu._at == {0b10: 1, 0b100: 3}
    # extra denominators count too; matching ones keep the stored table
    assert _int_tables((mu,), [F(1, 3)])[1][0] is mu._at
    assert ValuatedMatroid.__slots__ == ("n", "r", "_scale", "_at")


def _normalized_table(m: ValuatedMatroid):
    shift = trop_sum(m.table().values())
    return {b: v - shift for b, v in m.table().items()}


def reference_tls_equal(mu: ValuatedMatroid, nu: ValuatedMatroid) -> bool:
    """Tropical-linear-space equality: equal ranks and projectively equal
    basis-value tables."""
    if mu.n != nu.n:
        raise ShapeError("ground sets differ")
    return (
        mu.r == nu.r and _normalized_table(mu) == _normalized_table(nu)
    )


def rand_values(rng, n, r):
    subsets = list(combinations(range(1, n + 1), r))
    chosen = [b for b in subsets if rng.random() < 0.7] or [rng.choice(subsets)]
    return {b: F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7])) for b in chosen}


def rand_pairs(rng):
    """(kind, mu, nu) pairs on one ground set."""
    out = []
    for k in range(400):
        n = rng.randint(2, 6)
        r = rng.choice([0, n]) if k % 10 == 0 else rng.randint(1, n - 1)
        values = rand_values(rng, n, r)
        mu = ValuatedMatroid(n, r, values)
        shift = F(rng.randint(-9, 9), rng.choice([1, 2, 5, 9]))
        out.append(("shift", mu, ValuatedMatroid(n, r, {b: v + shift for b, v in values.items()})))
        moved = dict(values)
        b = rng.choice(sorted(moved))
        moved[b] += F(rng.choice([-1, 1]), rng.choice([1, 3, 10]))
        out.append(("moved", mu, ValuatedMatroid(n, r, moved)))
        subsets = list(combinations(range(1, n + 1), r))
        if len(subsets) > 1:
            other = {s: v for s, v in values.items() if s != b} or {
                next(s for s in subsets if s != b): values[b]}
            extra = next((s for s in subsets if s not in values), None)
            if extra is not None:
                other[extra] = F(rng.randint(-3, 3), 5)
            out.append(("support", mu, ValuatedMatroid(n, r, other)))
        s = rng.randint(0, n)
        if s != r:
            out.append(("rank", mu, ValuatedMatroid(n, s, rand_values(rng, n, s))))
        out.append(("random", mu, ValuatedMatroid(n, r, rand_values(rng, n, r))))
    return out


def test_tls_equal_matches_the_normalized_table_route():
    rng = random.Random(20261019)
    verdicts = {}  # (kind, verdict) -> count
    for kind, mu, nu in rand_pairs(rng):
        expected = reference_tls_equal(mu, nu)
        assert tls_equal(mu, nu) == expected, (mu, nu)
        assert tls_equal(nu, mu) == expected, (mu, nu)
        verdicts[kind, expected] = verdicts.get((kind, expected), 0) + 1
    assert verdicts.get(("shift", True), 0) == 400
    assert verdicts.get(("support", False), 0) > 300 and ("support", True) not in verdicts
    assert verdicts.get(("rank", False), 0) > 200 and ("rank", True) not in verdicts
    # moving the only entry of a one-basis table is a shift
    assert verdicts.get(("moved", False), 0) > 250 and verdicts.get(("moved", True), 0) > 10
    assert verdicts.get(("random", False), 0) > 250 and verdicts.get(("random", True), 0) > 10


def test_tls_equal_needs_one_ground_set():
    a, b = ValuatedMatroid(2, 1, {(1,): 0}), ValuatedMatroid(3, 1, {(1,): 0})
    for f in (tls_equal, reference_tls_equal):
        with pytest.raises(ShapeError):
            f(a, b)


@pytest.mark.parametrize("values", [
    {(1, 2): 0, (2, 1): 5, (1, 3): 0, (2, 3): 0},
    {(1, 2): 0, (2, 1): None, (1, 3): 0, (2, 3): 0},
    {(2, 1): TropValue(None), (1, 2): TropValue(None), (1, 3): 0},
], ids=["two-finite", "finite-and-infinite", "two-infinite"])
def test_a_subset_with_two_values_is_rejected(values):
    """Two keys naming one subset, in any order, are a usage error, whether
    the values are finite or not."""
    with pytest.raises(UsageError, match="given two values"):
        ValuatedMatroid(3, 2, values)


def rand_map(rng, n):
    """A ground-set map with rational shifts; some elements go to o, and
    some get an infinite shift, which GroundSetMap turns into o."""
    assignments = {}
    for i in range(1, n + 1):
        target = rng.randint(0, n)
        shift = (None if target == 0 or rng.random() < 0.1
                 else F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5])))
        assignments[i] = (target, shift)
    return GroundSetMap(n, assignments)


def constructions(nu, mu, f, e, keep):
    """What add_loop, delete, restrict_table, affine_induced,
    affine_induced_unpointed and is_affine_morphism answer, a library
    error standing for its answer."""
    out = []
    for call in (lambda: add_loop(nu), lambda: delete(nu, e), lambda: restrict_table(nu, keep),
                 lambda: affine_induced(nu, f), lambda: affine_induced_unpointed(nu, f),
                 lambda: is_affine_morphism(f, mu, nu)):
        try:
            out.append(call())
        except TropquiverError as exc:
            out.append((type(exc), str(exc)))
    return out


def test_constructions_read_no_table(monkeypatch):
    rng = random.Random(20261020)
    cases = []
    for _ in range(150):
        n = rng.randint(2, 5)
        r, s = rng.randint(0, n), rng.randint(0, n)
        cases.append((ValuatedMatroid(n, r, rand_values(rng, n, r)),
                      ValuatedMatroid(n, s, rand_values(rng, n, s)), rand_map(rng, n),
                      rng.randint(1, n), set(rng.sample(range(1, n + 1), rng.randint(0, n)))))
    expected = [constructions(*case) for case in cases]
    assert all(type(v) is F for answers in expected for v in answers[2][1].values())
    induced = sum(isinstance(answers[4], ValuatedMatroid) for answers in expected)
    verdicts = {answers[5][0] for answers in expected}
    assert induced > 100 and verdicts >= {True, False}, (induced, verdicts)

    def no_table(self):
        raise AssertionError("table() was called")

    monkeypatch.setattr(ValuatedMatroid, "table", no_table)
    for case, answers in zip(cases, expected):
        assert constructions(*case) == answers
