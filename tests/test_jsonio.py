"""jsonio.dump against json.dump(obj, stream, indent=2, sort_keys=True):
the same text, byte for byte, on generated trees."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropquiver import jsonio

TEXT = st.lists(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "\U0001f600"])), max_size=6).map("".join)
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 63 - 2, max_value=2 ** 64 + 2),
                 st.integers(max_value=-2 ** 63 + 2, min_value=-2 ** 64 - 2))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 0.1, float("nan"), float("inf"), float("-inf")]))
SCALARS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        # ints with bools and None among them, as in certificates
        st.lists(st.one_of(INTS, st.booleans(), st.none()), max_size=5),
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


@pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, [{}, [], ()], "", 0, None])
def test_empty_containers_and_bare_scalars(obj):
    assert dumped(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [Fraction(1, 2), [Fraction(1, 2)], {"a": Fraction(1, 2)},
                                 {1: "a"}, [{"a": 1, None: 2}], {"a": {(1, 2): 0}}])
def test_other_values_and_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        dumped(obj)
