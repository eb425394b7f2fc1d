"""A field matrix holds its entries once, as ints: exponents scaled by the
lcm N of all its exponent denominators (_scale), coefficients by one lcm L
of all its coefficient denominators (_coeff), in rows of {int: int} maps
(_at).

The views back (rows, entry, repr) and == and hash must not depend on the
form the entries came in.  The field kernels read the stored ints: with
``rows`` and ``entry`` made to raise, every one of them still answers as
before.
"""

import random
from fractions import Fraction

import pytest

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    classical_containment,
    decompose_weakly_monomial,
    det,
    is_weakly_monomial,
    pluecker_valuations,
    qdr_membership,
    qdr_membership_via_containment,
    rank_via_minors,
    trop_qgr_witness_check,
)
from tropquiver import quiver
from tropquiver.errors import TropquiverError
from tropquiver.jsonio import field_matrix_to_json

from helpers import rand_weakly_monomial
from test_minor_reference import rational_matrix

F = Fraction
t = PuiseuxElement.monomial


def as_scalar(x):
    """x as an int or a Fraction where it is a constant."""
    terms = x.terms()
    if not terms:
        return 0
    if len(terms) == 1 and terms[0][0] == 0:
        c = terms[0][1]
        return int(c) if c.denominator == 1 else c
    return x


def variants(rows):
    """The same rows as PuiseuxElements, as ints and Fractions where
    constant, with terms given in reverse order, and with exponents and
    coefficients given as text."""
    return [
        rows,
        [[as_scalar(x) for x in row] for row in rows],
        [[PuiseuxElement(dict(reversed(x.terms()))) for x in row] for row in rows],
        [[PuiseuxElement({str(e): str(c) for e, c in x.terms()}) for x in row] for row in rows],
    ]


def observed(m):
    """Everything the views show, for comparison."""
    return (m.n_rows, m.n_cols, m.rows, [[m.entry(i, j) for j in range(m.n_cols)]
                                         for i in range(m.n_rows)], repr(m), m._finite_entries())


def test_the_stored_form_has_one_scale_per_matrix():
    # exponents over 2 and 3, coefficients over 3 in row 0 and over 4 and 5
    # in row 1: N = 6 and one L = 60 for both rows
    m = FieldMatrix([[t(F(2, 3), F(1, 2)), 0], [F(5, 4), t(1, F(-1, 3)) + t(F(1, 5), 2)]])
    assert (m._scale, m._coeff) == (6, 60)
    assert m._at == (({3: 40}, {}), ({0: 75}, {-2: 60, 12: 12}))
    assert FieldMatrix.__slots__ == ("_scale", "_coeff", "_at")
    assert all(type(k) is int and type(v) is int
               for row in m._at for x in row for k, v in x.items())
    # integral data is stored with scales 1
    one = FieldMatrix([[1, 0], [t(-2, 3), 7]])
    assert (one._scale, one._coeff) == (1, 1) and one._at == (({0: 1}, {}), ({3: -2}, {0: 7}))


@pytest.mark.parametrize("seed", range(6))
def test_every_input_form_gives_one_matrix(seed):
    rng = random.Random(seed)
    d, n = rng.randint(1, 4), rng.randint(1, 5)
    m = rational_matrix(rng, d, n)
    rows = [list(row) for row in m.rows]
    ms = [FieldMatrix(v) for v in variants(rows)]
    for other in ms:
        assert (other._scale, other._coeff, other._at) == (m._scale, m._coeff, m._at)
        assert other == m and hash(other) == hash(m) and len({other, m}) == 1
        assert observed(other) == observed(m)


def test_views_round_trip():
    rng = random.Random(20261020)
    for _ in range(100):
        m = rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        rows = m.rows
        assert all(type(x) is PuiseuxElement for row in rows for x in row)
        assert all(type(e) is F and type(c) is F for row in rows for x in row for e, c in x.terms())
        again = FieldMatrix(rows)
        assert again == m and hash(again) == hash(m) and again._at == m._at
        assert again.rows == rows and repr(again) == repr(m)
        assert all(m.entry(i, j) == x for i, row in enumerate(rows) for j, x in enumerate(row))
        assert rows is not m.rows and rows == m.rows  # a fresh view on each read


def test_finite_entries_are_the_least_exponents():
    rng = random.Random(20261021)
    seen_zero = 0
    for _ in range(100):
        m = rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        expected = [(i, j, min(e for e, _ in x.terms())) for i, row in enumerate(m.rows, 1)
                    for j, x in enumerate(row, 1) if not x.is_zero]
        got = m._finite_entries()
        assert got == expected and all(type(x) is F for _, _, x in got)
        seen_zero += len(expected) < m.n_rows * m.n_cols
    assert seen_zero > 50


def test_a_changed_entry_changes_the_matrix():
    m = FieldMatrix([[F(1, 2), t(1, F(1, 3))]])
    for other in (FieldMatrix([[F(1, 2), t(1, F(2, 3))]]), FieldMatrix([[F(1, 4), t(1, F(1, 3))]]),
                  FieldMatrix([[F(1, 2), t(2, F(1, 3))]]), FieldMatrix([[F(1, 2)], [t(1, F(1, 3))]])):
        assert other != m and len({other, m}) == 2


def witness_instance(rng, n=4):
    """A rational arrow u -> w, ranks (1, 2): a witness [u; A u + extra]
    whose exponent scale differs from the arrow's, and a second target."""
    while True:
        a = rational_matrix(rng, n, n, exp_dens=(2,))
        u = rational_matrix(rng, 1, n, exp_dens=(3,))
        w = FieldMatrix([a.matvec(u.rows[0])] + list(rational_matrix(rng, 1, n, (5,)).rows))
        other = rational_matrix(rng, 2, n, exp_dens=(1, 5))
        if rank_via_minors(u) == 1 and rank_via_minors(w) == rank_via_minors(other) == 2:
            return a, u, w, other


def guarded_calls(rng):
    """(name, call) pairs of every field kernel on rational data."""
    calls = []
    for _ in range(8):
        a, u, w, other = witness_instance(rng)
        rep = QuiverRepresentation(4, ["u", "w"], [RepArrow("u", "w", field=a)], {"u": 1, "w": 2})
        loop = QuiverRepresentation(4, ["u", "w"], [RepArrow("u", "w", field=a),
                                                    RepArrow("w", "w", field=a)], {"u": 1, "w": 2})
        mus = {"u": pluecker_valuations(u), "w": pluecker_valuations(w)}
        others = {"u": mus["u"], "w": pluecker_valuations(other)}
        square = rational_matrix(rng, 3, 3)
        monomial, _ = rand_weakly_monomial(rng, 4)
        decomposed = decompose_weakly_monomial(monomial)
        calls += [
            ("pluecker_valuations", lambda w=w: pluecker_valuations(w)),
            ("rank_via_minors", lambda m=other: rank_via_minors(m)),
            ("det", lambda m=square: det(m)),
            ("classical_containment", lambda a=a, u=u, w=w: classical_containment(a, u, w)),
            ("classical_containment", lambda a=a, u=u, m=other: classical_containment(a, u, m)),
            ("matvec", lambda a=a, vec=u.rows[0]: a.matvec(vec)),
            ("trop_qgr_witness_check",
             lambda rep=rep, mus=mus, u=u, w=w: trop_qgr_witness_check(rep, mus, {"u": u, "w": w})),
            ("trop_qgr_witness_check", lambda rep=rep, mus=mus, u=u, m=other:
             trop_qgr_witness_check(rep, mus, {"u": u, "w": m})),
            ("is_weakly_monomial", lambda m=monomial: is_weakly_monomial(m)),
            ("is_weakly_monomial", lambda m=square: is_weakly_monomial(m)),
            ("field_matrix_to_json",  # monomial-decompose's output
             lambda ms=decomposed: [field_matrix_to_json(m) for m in ms]),
        ]
        for r in (rep, loop):
            for tup in (mus, others):
                calls += [
                    ("qdr_membership", lambda r=r, tup=tup: qdr_membership(r, tup)),
                    ("qdr_membership_via_containment",
                     lambda r=r, tup=tup: qdr_membership_via_containment(r, tup)),
                ]
            calls.append(("_kept_relations", lambda r=r: list(quiver._kept_relations(r))))
    return calls


def answer(call):
    try:
        return call()
    except TropquiverError as exc:
        return type(exc), str(exc)


def test_field_kernels_build_no_view(monkeypatch):
    calls = guarded_calls(random.Random(20261022))
    expected = [answer(call) for _, call in calls]
    verdicts = {}
    for (name, _), got in zip(calls, expected):
        if name.startswith(("qdr", "trop_qgr", "classical", "is_weakly")):
            verdict = got if isinstance(got, bool) else got[0]
            verdicts.setdefault(name, set()).add(verdict)
    # each decision is met both ways on these instances
    assert all(v >= {True, False} for v in verdicts.values()), verdicts
    assert len(verdicts) == 5

    def refuse(*args):
        raise AssertionError("a view of a field matrix was built")

    monkeypatch.setattr(FieldMatrix, "rows", property(refuse))
    monkeypatch.setattr(FieldMatrix, "entry", refuse)
    for (name, call), before in zip(calls, expected):
        assert answer(call) == before, name


def test_matvec_scales_its_vector_like_a_matrix():
    a = FieldMatrix([[t(F(1, 2), F(1, 2)), 1], [0, t(3, F(-2, 3))]])
    v = [t(F(2, 5), F(1, 5)), F(1, 7)]
    assert a.matvec(v) == (t(F(1, 5), F(7, 10)) + F(1, 7), t(F(3, 7), F(-2, 3)))
    assert a.matvec(FieldMatrix([v]).rows[0]) == a.matvec(v)
    with pytest.raises(TropquiverError, match="vector length mismatch"):
        a.matvec([1, 2, 3])
