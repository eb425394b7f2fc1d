"""jsonio.dump against json.dump(obj, stream, indent=2, sort_keys=True):
the same text, byte for byte, on generated trees, with the relation
monomials whose text dump renders once per indent among them."""

import gc
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropquiver import jsonio
from tropquiver.quiver import QuiverRepresentation, RepArrow, all_relations
from tropquiver.trop import INF, TropMatrix

TEXT = st.lists(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "\U0001f600"])), max_size=6).map("".join)
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 63 - 2, max_value=2 ** 64 + 2),
                 st.integers(max_value=-2 ** 63 + 2, min_value=-2 ** 64 - 2))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 0.1, float("nan"), float("inf"), float("-inf")]))
SCALARS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())
# monomials as relation_to_json hands them over: (vertex, subset) factors
# of str and int leaves
MONOMIALS = st.lists(st.tuples(TEXT, st.lists(INTS, max_size=3).map(tuple)),
                     max_size=2).map(jsonio._Monomial)
TREES = st.recursive(
    st.one_of(SCALARS, MONOMIALS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        # ints with bools and None among them, as in certificates
        st.lists(st.one_of(INTS, st.booleans(), st.none()), max_size=5),
        # one subtree repeated at one indent and at others, so that
        # memoized monomials are hit
        children.map(lambda c: [c, c, (c, [c]), {"a": c, "b": [[c]]}]),
    ),
    max_leaves=40,
)


def dumped(obj):
    buf = io.StringIO()
    jsonio.dump(obj, buf)
    return buf.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(TREES)
def test_dump_matches_json(obj):
    assert dumped(obj) == json.dumps(obj, indent=2, sort_keys=True)


M = jsonio._Monomial((("u", (1, 2)), ("w", (1, 3))))


@pytest.mark.parametrize("obj", [
    # equal tuples whose text differs
    [(1,), (True,), (1.0,)],
    [(0.0,), (-0.0,)],
    {"a": [(1,), (True,)], "b": (1.0,), "c": [[(1,)], [(True,)]]},
    # nested and repeated tuples, at one indent and at several
    [((1, 2), (1, 2)), ((1, 2), [(1, 2)]), {"t": ((1, 2),)}],
    [M, M, (M, [M]), {"m": M, "n": [M, [M]]}],
    [jsonio._Monomial(), jsonio._Monomial(), [jsonio._Monomial()]],
    # tuples that hold lists or dicts
    [([1],), ([1],), ({"a": (1,)},), [({"a": (1,)},)]],
])
def test_repeated_and_colliding_tuples(obj):
    assert dumped(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_relation_monomials_of_other_vertex_names_render_in_place():
    # the loop's source True equals vertex 1, so the loop's monomials equal
    # the vertex's ones, but print true where those print 1
    diagonal = TropMatrix([[i if i == j else INF for j in range(4)] for i in range(4)])
    rep = QuiverRepresentation(4, [1], [RepArrow(src=True, dst=1, trop=diagonal)], {1: 2})
    rels = [jsonio.relation_to_json(r) for r in all_relations(rep)]
    assert {r["kind"] for r in rels} == {"vertex", "arrow"}
    assert dumped(rels) == json.dumps(rels, indent=2, sort_keys=True)


def test_relation_monomials_are_memoized():
    rep = QuiverRepresentation(4, ["v"], [], {"v": 2})
    rel = jsonio.relation_to_json(all_relations(rep)[0])
    assert {type(t["monomial"]) for t in rel["classical"] + rel["tropical"]} == {jsonio._Monomial}


def test_dump_leaves_no_cyclic_garbage():
    obj = {"a": [[1, (2, 3)], {"b": [None, 1.5, M]}], "c": [M, (M,)] * 700}
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
