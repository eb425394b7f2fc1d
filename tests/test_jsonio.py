"""jsonio.dump against json.dump(obj, stream, indent=2, sort_keys=True):
the same text, byte for byte, on generated trees, with the relations of
relations_to_json among them, each compared as the object it encodes
(plain)."""

import gc
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropquiver import jsonio
from tropquiver.quiver import (
    QuiverRepresentation,
    RepArrow,
    _kept_relations,
    identity_chain_representation,
)
from tropquiver.trop import INF, TropMatrix

TEXT = st.lists(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "\U0001f600"])), max_size=6).map("".join)
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 63 - 2, max_value=2 ** 64 + 2),
                 st.integers(max_value=-2 ** 63 + 2, min_value=-2 ** 64 - 2))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 0.1, float("nan"), float("inf"), float("-inf")]))
SCALARS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())
SUBSETS = st.one_of(st.sampled_from([(1, 2), (1, 3), ()]), st.lists(INTS, max_size=3).map(tuple))
# texts of rational coefficients, from a small pool so that they repeat
RATIONALS = st.one_of(st.sampled_from(["1", "-1", "0", "1/2"]), TEXT)


@st.composite
def relations(draw):
    """A jsonio._Relation: both layers or the tropical one alone, vertex
    names of any scalar type (str ones share their rendered text), the same
    two in every monomial."""
    u, w = draw(SCALARS), draw(SCALARS)
    classical = draw(st.booleans())
    coefficient = (st.lists(st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=2).map(tuple)
                   if classical else st.none())
    monomial = st.tuples(st.tuples(st.just(u), SUBSETS), st.tuples(st.just(w), SUBSETS))
    terms = st.lists(st.tuples(monomial, st.tuples(coefficient, RATIONALS)), max_size=3)
    return jsonio._Relation((draw(TEXT), draw(SCALARS), draw(SUBSETS), draw(SUBSETS), classical,
                             tuple(draw(terms))))


TREES = st.recursive(
    st.one_of(SCALARS, relations()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        # ints with bools and None among them, as in certificates
        st.lists(st.one_of(INTS, st.booleans(), st.none()), max_size=5),
        # one subtree repeated at one indent and at others, so that
        # memoized relation parts are hit
        children.map(lambda c: [c, c, (c, [c]), {"a": c, "b": [[c]]}]),
    ),
    max_leaves=40,
)


def dumped(obj):
    buf = io.StringIO()
    jsonio.dump(obj, buf)
    return buf.getvalue()


def plain(x):
    """x with each jsonio._Relation in it replaced by the object it
    encodes."""
    if type(x) is jsonio._Relation:
        kind, where, i_set, j_set, classical, terms = x
        return {
            "kind": kind,
            "where": where,
            "I": list(i_set),
            "J": list(j_set),
            "classical": [{"monomial": m, "coeff": [{"c": c, "e": e} for c, e in coeff]}
                          for m, (coeff, _) in terms] if classical else None,
            "tropical": [{"monomial": m, "coeff": value} for m, (_, value) in terms],
        }
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(plain(v) for v in x)
    return x


def expected(obj):
    return json.dumps(plain(obj), indent=2, sort_keys=True)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(TREES)
def test_dump_matches_json(obj):
    assert dumped(obj) == expected(obj)


CHAIN = jsonio.relations_to_json(_kept_relations(identity_chain_representation(5, [2, 3])))
R = CHAIN[-1]  # an arrow relation
EMPTY = jsonio._Relation(("vertex", "v", (), (), True, ()))
TROPICAL = jsonio._Relation(("arrow", 0, (1,), (1, 2, 3), False, (
    ((("u", (1, 2)), ("w", (1, 3))), (None, "1/2")),
    ((("u", (1, 3)), ("w", (1, 2))), (None, "-2")))))


@pytest.mark.parametrize("obj", [
    # equal tuples whose text differs
    [(1,), (True,), (1.0,)],
    [(0.0,), (-0.0,)],
    {"a": [(1,), (True,)], "b": (1.0,), "c": [[(1,)], [(True,)]]},
    # nested and repeated tuples, at one indent and at several
    [((1, 2), (1, 2)), ((1, 2), [(1, 2)]), {"t": ((1, 2),)}],
    [R, R, (R, [R]), {"m": R, "n": [R, [R]]}],
    [EMPTY, EMPTY, [EMPTY], TROPICAL, [TROPICAL, R]],
    # tuples that hold lists or dicts
    [([1],), ([1],), ({"a": (1,)},), [({"a": (1,)},)]],
])
def test_repeated_and_colliding_tuples(obj):
    assert dumped(obj) == expected(obj)


def test_relation_monomials_of_other_vertex_names_render_in_place():
    # the loop's source True equals vertex 1, so the loop's monomials equal
    # the vertex's ones, but print true where those print 1
    diagonal = TropMatrix([[i if i == j else INF for j in range(4)] for i in range(4)])
    rep = QuiverRepresentation(4, [1], [RepArrow(src=True, dst=1, trop=diagonal)], {1: 2})
    rels = jsonio.relations_to_json(_kept_relations(rep))
    assert {r[0] for r in rels} == {"vertex", "arrow"}
    assert dumped(rels) == expected(rels)


def test_relation_monomials_are_memoized(monkeypatch):
    # each distinct I or J, each distinct factor of a monomial and each
    # distinct classical coefficient is rendered once per indent
    rendered = []
    text = jsonio._text
    monkeypatch.setattr(jsonio, "_text",
                        lambda x, nl, memo: rendered.append((repr(x), nl)) or text(x, nl, memo))
    assert {type(r) for r in CHAIN} == {jsonio._Relation}
    obj = {"a": CHAIN, "b": [CHAIN]}  # the relations at two indents
    assert dumped(obj) == expected(obj)
    factors = {f for r in CHAIN for m, _ in r[5] for f in m}
    coefficients = {c for r in CHAIN for _, (c, _) in r[5]}
    subsets = {s for r in CHAIN for s in r[2:4]}
    assert len(factors) == 20 and len(coefficients) == 2 and len(subsets) == 18
    assert len(rendered) == len(set(rendered)) == 2 * (
        len(factors) + len(coefficients) + len(subsets))


def test_dump_leaves_no_cyclic_garbage():
    obj = {"a": [[1, (2, 3)], {"b": [None, 1.5, R]}], "c": [R, (R,)] * 700}
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            dumped(obj)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, [{}, [], ()], "", 0, None])
def test_empty_containers_and_bare_scalars(obj):
    assert dumped(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [Fraction(1, 2), [Fraction(1, 2)], {"a": Fraction(1, 2)},
                                 {1: "a"}, [{"a": 1, None: 2}], {"a": {(1, 2): 0}}])
def test_other_values_and_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumped(obj)
