"""Value types: frozen after construction, compared by value."""

from fractions import Fraction

import pytest

from tropquiver import (
    FieldMatrix,
    GroundSetMap,
    PuiseuxElement,
    TropMatrix,
    TropPolynomial,
    TropValue,
    TropVector,
    ValuatedMatroid,
    identity_chain_representation,
    uniform_matroid,
)

VALUES = [
    (TropValue(1), "value"),
    (TropVector([0, 1]), "entries"),
    (TropMatrix([[0, 1]]), "rows"),
    (TropPolynomial([(0, ("x",))]), "terms"),
    (PuiseuxElement.const(1), "_terms"),
    (FieldMatrix([[1, 0]]), "rows"),
    (uniform_matroid(3, 2), "n"),
    (GroundSetMap.identity(3), "f1"),
    (identity_chain_representation(3, (1, 2)), "arrows"),
]


@pytest.mark.parametrize("obj,field", VALUES, ids=[type(o).__name__ for o, _ in VALUES])
def test_value_types_are_frozen(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        obj.extra = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


def test_equality_compares_values():
    v, w = TropVector([0, 1]), TropVector([Fraction(0), TropValue(1)])
    assert v == w and hash(v) == hash(w) and v != TropVector([0, 2])
    a, b = TropMatrix.identity(2), TropMatrix([[0, None], [None, 0]])
    assert a == b and hash(a) == hash(b) and a != TropMatrix([[0, 0], [0, 0]])

    mu = uniform_matroid(3, 2)
    assert mu == ValuatedMatroid(3, 2, {(2, 3): 0, (1, 3): 0, (2, 1): 0})
    assert mu != ValuatedMatroid(3, 2, {(1, 2): 0, (1, 3): 0, (2, 3): 1})
    assert mu != ValuatedMatroid(4, 2, {(1, 2): 0, (1, 3): 0, (2, 3): 0})
    f = GroundSetMap.identity(3)
    assert f == GroundSetMap(3, {3: (3, 0), 2: (2, 0), 1: (1, Fraction(0))})
    assert f != GroundSetMap(3, {1: (1, 0), 2: (2, 0), 3: (3, 1)})
    # an infinite shift is normalized to the origin
    assert GroundSetMap(3, {1: (1, 0), 2: (2, 0), 3: (3, None)}) == GroundSetMap(
        3, {1: (1, 0), 2: (2, 0), 3: ("o", None)})

    assert TropValue(1) == 1 and TropValue(Fraction(1, 2)) == Fraction(1, 2)
    assert PuiseuxElement.const(2) == 2 and PuiseuxElement() == 0
    assert TropPolynomial([(0, ("x",)), (1, ("y",))]) == TropPolynomial(
        [(1, ("y",)), (0, ("x",))])
    rep = identity_chain_representation(3, (1, 2))
    assert rep == rep and rep != identity_chain_representation(3, (1, 2))


def test_equal_values_hash_alike():
    half = Fraction(1, 2)
    assert hash(TropValue(3)) == hash(3) and len({TropValue(3), 3}) == 1
    assert {TropValue(half): "a"}.get(half) == "a"
    for p, c in [(PuiseuxElement.const(3), 3), (PuiseuxElement.const(half), half),
                 (PuiseuxElement(), 0)]:
        assert p == c and hash(p) == hash(c) and len({p, c}) == 1
