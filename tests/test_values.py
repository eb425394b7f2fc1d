"""Value types: frozen after construction, compared by value."""

from fractions import Fraction

import pytest

from tropquiver import (
    INF,
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
from tropquiver.errors import ShapeError

VALUES = [
    (TropValue(1), "value"),
    (TropVector([0, 1]), "entries"),
    (TropMatrix([[0, 1]]), "rows"),
    (TropPolynomial([(0, ("x",))]), "terms"),
    (PuiseuxElement.const(1), "_terms"),
    (FieldMatrix([[1, 0]]), "_at"),  # rows is a view, built afresh on each read
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



half = Fraction(1, 2)
# (matrix, the same rows spelled by other entries, its repr)
MATRICES = [
    (TropMatrix([[0, None], [half, -3]]), [[Fraction(0), INF], [TropValue(half), TropValue(-3)]],
     "[0 inf; 1/2 -3]"),
    (TropMatrix([[5]]), [[TropValue(5)]], "[5]"),
    (FieldMatrix([[1, 0], [PuiseuxElement.t_power(half), -3]]),
     [[PuiseuxElement.const(1), PuiseuxElement()], [PuiseuxElement({half: 1}), Fraction(-3)]],
     "[1, 0; t^1/2, -3]"),
    (FieldMatrix([[PuiseuxElement({0: 2, 1: -1}), 0, half]]),
     [[PuiseuxElement.const(2) - PuiseuxElement.t_power(1), PuiseuxElement(), half]],
     "[2 + -1*t, 0, 1/2]"),
]


@pytest.mark.parametrize("m,rows,text", MATRICES,
                         ids=["trop-2x2", "trop-1x1", "field-2x2", "field-1x3"])
def test_matrix_entries_repr_and_hash(m, rows, text):
    assert repr(m) == text and (m.n_rows, m.n_cols) == (len(rows), len(rows[0]))
    assert all(m.entry(i, j) == x for i, row in enumerate(rows) for j, x in enumerate(row))
    # equal rows, whatever entries spell them, give equal matrices that hash alike
    other = type(m)(rows)
    assert m == other and hash(m) == hash(other) and len({m, other}) == 1


@pytest.mark.parametrize("cls,n,text", [
    (TropMatrix, 1, "[0]"), (TropMatrix, 3, "[0 inf inf; inf 0 inf; inf inf 0]"),
    (FieldMatrix, 1, "[1]"), (FieldMatrix, 3, "[1, 0, 0; 0, 1, 0; 0, 0, 1]"),
])
def test_matrix_identity(cls, n, text):
    m = cls.identity(n)
    assert type(m) is cls and repr(m) == text and m == cls.identity(n)


@pytest.mark.parametrize("cls,layer", [(TropMatrix, "tropical"), (FieldMatrix, "field")])
def test_matrix_shape_errors(cls, layer):
    for rows in ([], [[]], [[], []]):
        with pytest.raises(ShapeError, match="^empty %s matrix$" % layer):
            cls(rows)
    for rows in ([[0], [0, 0]], [[0, 0], [0]], [[0], [0], []]):
        with pytest.raises(ShapeError, match="^ragged %s matrix$" % layer):
            cls(rows)


def test_field_matrix_never_equals_trop_matrix():
    pairs = [(FieldMatrix([[1, 0]]), TropMatrix([[1, 0]])),
             (FieldMatrix.identity(2), TropMatrix.identity(2)),
             (FieldMatrix([[0]]), TropMatrix([[0]])),
             # a field matrix and its valuation
             (FieldMatrix([[1, 0]]), TropMatrix([[0, None]]))]
    for f, t in pairs:
        assert f != t and t != f and not f == t and len({f, t}) == 2
