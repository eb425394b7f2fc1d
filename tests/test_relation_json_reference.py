"""The relations verdict against the encoder it replaced.

``relation_to_json`` below is the previous encoder of one relation of
``quiver.all_relations``, kept verbatim; it read the Puiseux and tropical
objects that the verdict no longer builds.  ``_monomial`` stands in for the
tuple subclass it wrapped a monomial in, which only told ``jsonio.dump`` to
memoize its text: ``json.dumps`` writes both the same.  The relations
verdict must be the text of ``json.dumps`` on the reference's output, byte
for byte.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from tropquiver import cli, jsonio, puiseux, quiver
from tropquiver.jsonio import puiseux_to_json, value_to_json
from tropquiver.puiseux import FieldMatrix, PuiseuxElement, valuation
from tropquiver.quiver import (
    QuiverRepresentation,
    RepArrow,
    all_relations,
    identity_chain_representation,
)
from tropquiver.trop import INF, TropMatrix, TropValue

from helpers import rand_scaled_exponent, rand_scaled_field_matrix


def _monomial(m):
    return m


def relation_to_json(rel):
    """A relation of quiver.all_relations; a monomial is an array of
    [vertex, subset] factors, handed to dump as tuples."""
    return {
        "kind": rel["kind"],
        "where": rel["where"],
        "I": list(rel["I"]),
        "J": list(rel["J"]),
        "classical": None if rel["classical"] is None else [
            {"monomial": _monomial(m), "coeff": puiseux_to_json(c)} for m, c in rel["classical"]
        ],
        "tropical": [
            {"monomial": _monomial(m), "coeff": value_to_json(c)} for c, m in rel["tropical"].terms
        ],
    }


def representation_to_json(rep):
    arrows = []
    for a in rep.arrows:
        arrow = {"src": a.src, "dst": a.dst}
        if a.field is not None:
            arrow["matrix_field"] = jsonio.field_matrix_to_json(a.field)
        if a.trop is not None:
            arrow["matrix_trop"] = [[value_to_json(x) for x in row] for row in a.trop.rows]
        arrows.append(arrow)
    return {"n": rep.n, "vertices": list(rep.vertices), "dim": rep.dim, "arrows": arrows}


def trop_matrix(rng, n, density):
    """An n x n tropical matrix, finite entries from rand_scaled_exponent."""
    return TropMatrix([[TropValue(rand_scaled_exponent(rng)) if rng.random() < density else INF
                        for _ in range(n)] for _ in range(n)])


def field_arrow(rng, n, src, dst):
    return RepArrow(src, dst, field=rand_scaled_field_matrix(rng, n, rng.choice([0.5, 1.0])))


def trop_arrow(rng, n, src, dst):
    return RepArrow(src, dst, trop=trop_matrix(rng, n, rng.choice([0.5, 1.0])))


def quivers():
    """(id, representation): identity chains; field arrows with rational
    exponents and coefficients; tropical arrows; field and tropical loops;
    both layers on one arrow; mixed quivers; and quivers without
    relations."""
    rng = random.Random(20261019)
    out = [("chain5", identity_chain_representation(5, [2, 3])),
           ("chain6", identity_chain_representation(6, [1, 3, 4])),
           ("chain7", identity_chain_representation(7, [3, 5]))]
    for k in range(4):
        out += [
            ("field%d" % k, QuiverRepresentation(
                4, ["u", "w"], [field_arrow(rng, 4, "u", "w")], {"u": 2, "w": 3})),
            ("trop%d" % k, QuiverRepresentation(
                4, ["u", "w"], [trop_arrow(rng, 4, "u", "w"), trop_arrow(rng, 4, "w", "u")],
                {"u": 2, "w": 2})),
            ("field_loop%d" % k, QuiverRepresentation(
                3, ["v"], [field_arrow(rng, 3, "v", "v")], {"v": 1})),
            ("trop_loop%d" % k, QuiverRepresentation(
                4, ["v"], [trop_arrow(rng, 4, "v", "v")], {"v": 2})),
            ("mixed%d" % k, QuiverRepresentation(
                4, ["u", "w"], [field_arrow(rng, 4, "u", "w"), trop_arrow(rng, 4, "u", "w"),
                                field_arrow(rng, 4, "w", "w")], {"u": 2, "w": 2})),
        ]
    field = rand_scaled_field_matrix(rng, 3, 1.0)
    zero = FieldMatrix([[PuiseuxElement()] * 3] * 3)
    out += [
        ("parallel", QuiverRepresentation(3, ["u", "w"], [
            RepArrow("u", "w", field=field),
            RepArrow("u", "w", field=FieldMatrix([[x * PuiseuxElement({1: Fraction(-2, 3)})
                                                   for x in row] for row in field.rows]))],
            {"u": 1, "w": 2})),
        ("both_layers", QuiverRepresentation(3, ["u", "w"], [RepArrow(
            "u", "w", field=field, trop=TropMatrix([[valuation(x) for x in row]
                                                    for row in field.rows]))], {"u": 2, "w": 2})),
        ("zero_arrow", QuiverRepresentation(3, ["u", "w"], [RepArrow("u", "w", field=zero)],
                                            {"u": 1, "w": 1})),
        ("no_arrow", QuiverRepresentation(2, ["v"], [], {"v": 1})),
    ]
    return out


QUIVERS = quivers()


@pytest.mark.parametrize("rep", [rep for _, rep in QUIVERS], ids=[name for name, _ in QUIVERS])
def test_verdict_is_the_reference_text(tmp_path, capsys, rep):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(representation_to_json(rep)))
    assert cli.main(["relations", str(path)]) == 0
    out = capsys.readouterr().out
    verdict = json.loads(out)
    # the input is decoded to an equal representation
    reference = [relation_to_json(r) for r in all_relations(jsonio.representation_from_json(
        json.loads(path.read_text())))]
    verdict["result"] = {"count": len(reference), "relations": reference}
    assert out == json.dumps(verdict, indent=2, sort_keys=True) + "\n"


def test_the_cases_cover_every_layer():
    kinds = set()
    for _, rep in QUIVERS:
        rels = all_relations(rep)
        if not rels:
            kinds.add("none")
        for r in rels:
            a = rep.arrows[r["where"]] if r["kind"] == "arrow" else None
            loop = a is not None and a.src == a.dst
            kinds.add((r["kind"], loop, r["classical"] is None))
            if r["classical"] is not None:
                kinds.update("rational" for _, c in r["classical"] for e, k in c.terms()
                             if e.denominator > 1 and k.denominator > 1)
    assert kinds == {"none", "rational", ("vertex", False, False), ("arrow", False, False),
                     ("arrow", False, True), ("arrow", True, False), ("arrow", True, True)}


def test_other_vertex_names_match_the_reference():
    # the loop's source True equals vertex 1, so the loop's monomials equal
    # the vertex's ones, but print true where those print 1
    diagonal = TropMatrix([[i if i == j else INF for j in range(4)] for i in range(4)])
    rep = QuiverRepresentation(4, [1], [RepArrow(src=True, dst=1, trop=diagonal)], {1: 2})
    rels = jsonio.relations_to_json(quiver._kept_relations(rep))
    reference = [relation_to_json(r) for r in all_relations(rep)]
    assert {r["kind"] for r in reference} == {"vertex", "arrow"}
    buf = io.StringIO()
    jsonio.dump(rels, buf)
    assert buf.getvalue() == json.dumps(reference, indent=2, sort_keys=True)


def test_verdict_builds_no_puiseux_or_tropical_object(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built on the way to the verdict")

    paths = []
    for name, rep in QUIVERS:
        if name in ("chain5", "mixed0", "trop_loop0"):
            paths.append(tmp_path / (name + ".json"))
            paths[-1].write_text(json.dumps(representation_to_json(rep)))
    # _unscaled is the one converter from stored ints to Puiseux elements:
    # matrix views, determinants, products and _convert all build through it
    for module, name in ((quiver, "_convert"), (quiver, "_unscaled"), (puiseux, "_unscaled"),
                         (quiver, "TropPolynomial")):
        monkeypatch.setattr(module, name, refuse)
    for path in paths:
        assert cli.main(["relations", str(path)]) == 0, capsys.readouterr()
        assert json.loads(capsys.readouterr().out)["result"]["count"] > 0
