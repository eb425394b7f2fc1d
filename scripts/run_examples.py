#!/usr/bin/env python3
"""Run the bundled worked examples end to end and print what they produce.

Covers the induced-matroid running example, the Kronecker quiver, the
three-point diagonal family, the two-towers diamond quiver, and a point of
the quiver Dressian in ambient dimension 2 that is not realizable.  Output
is plain text; everything printed is computed on the spot with exact
arithmetic.
"""

import argparse
from fractions import Fraction

from tropquiver import (
    FieldMatrix,
    GroundSetMap,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    affine_induced_unpointed,
    all_relations,
    associated_matrix,
    cocircuits,
    decompose_weakly_monomial,
    image_equals_induced,
    pluecker_valuations,
    qdr_membership,
    qdr_membership_via_containment,
    quiver_pluecker_relations,
    trop_matvec,
    trop_qgr_witness_check,
    uniform_matroid,
    ValuatedMatroid,
)

one = PuiseuxElement.const(1)
zero = PuiseuxElement()
t = PuiseuxElement.t_power(1)


def rank1(n, values):
    table = {(i,): v for i, v in enumerate(values, start=1) if v is not None}
    return ValuatedMatroid(n, 1, table)


def heading(title):
    print()
    print(title)
    print("-" * len(title))


def induced_matroid_example():
    heading("induced matroid under a weakly monomial map")
    mu = uniform_matroid(3, 2)
    f = GroundSetMap(3, {1: (1, 3), 2: (3, 1), 3: (2, 0)})
    ind = affine_induced_unpointed(mu, f)
    print("source:", mu)
    print("induced values:", {b: str(v) for b, v in sorted(ind.table().items())})
    print("induced cocircuits:", [str(c) for c in cocircuits(ind)])
    a, a_trop = associated_matrix(f)
    print("tropical matrix:", a_trop)
    print("cocircuit images:", [str(trop_matvec(a_trop, c)) for c in cocircuits(mu)])
    print("image equals induced:", image_equals_induced(f, mu))
    b, d = decompose_weakly_monomial(a)
    print("diagonal factor d[0][0]:", d.entry(0, 0))


def kronecker_example():
    heading("Kronecker quiver: two arrows on the line")
    rep = QuiverRepresentation(
        2,
        ["u", "w"],
        [
            RepArrow("u", "w", field=FieldMatrix.identity(2)),
            RepArrow("u", "w", field=FieldMatrix([[one, zero], [zero, one + t]])),
        ],
        {"u": 1, "w": 1},
    )
    for rel in all_relations(rep):
        print(
            "relation at arrow %d:" % rel["where"],
            [(m, str(c)) for m, c in rel["classical"]],
        )
    for point in ((0, None), (None, 0), (0, 5), (0, 0)):
        mus = {"u": rank1(2, point), "w": rank1(2, point)}
        print("membership of %s twice:" % (point,), qdr_membership(rep, mus))
    candidates = [
        ("span(e1)", FieldMatrix([[one, zero]])),
        ("span(e2)", FieldMatrix([[zero, one]])),
        ("span(e1+e2)", FieldMatrix([[one, one]])),
        ("span(e1+t*e2)", FieldMatrix([[one, t]])),
    ]
    for name, span in candidates:
        mus = {"u": pluecker_valuations(span), "w": pluecker_valuations(span)}
        print("witness %s:" % name, trop_qgr_witness_check(rep, mus, {"u": span, "w": span}))


def diagonal_family_example():
    heading("diagonal quiver on [3]: the one-parameter family")
    diag = FieldMatrix(
        [
            [one, zero, zero],
            [zero, one + t, zero],
            [zero, zero, one + PuiseuxElement.t_power(2)],
        ]
    )
    rep = QuiverRepresentation(
        3,
        ["u", "w"],
        [RepArrow("u", "w", field=FieldMatrix.identity(3)), RepArrow("u", "w", field=diag)],
        {"u": 1, "w": 1},
    )
    for point in ((0, None, None), (0, 2, -1), (0, Fraction(1, 2), 4)):
        mus = {"u": rank1(3, point), "w": rank1(3, point)}
        print("family point %s:" % (point,), qdr_membership(rep, mus))
    off = {"u": rank1(3, (0, 2, -1)), "w": rank1(3, (0, 3, 2))}
    print("off-family pair:", qdr_membership(rep, off))


def two_towers_example():
    heading("two-towers diamond quiver, d = (1, 2, 2, 3) on [4]")
    I4 = FieldMatrix.identity(4)
    rep = QuiverRepresentation(
        4,
        ["v1", "v2", "v3", "v4"],
        [
            RepArrow("v1", "v2", field=I4),
            RepArrow("v1", "v3", field=I4),
            RepArrow("v2", "v4", field=I4),
            RepArrow("v3", "v4", field=I4),
        ],
        {"v1": 1, "v2": 2, "v3": 2, "v4": 3},
    )
    rels = all_relations(rep)
    print("number of surviving relations:", len(rels))

    def span(*idxs):
        return FieldMatrix(
            [[one if j + 1 == i else zero for j in range(4)] for i in idxs]
        )

    witness = {"v1": span(1), "v2": span(1, 2), "v3": span(1, 4), "v4": span(1, 2, 4)}
    mus = {v: pluecker_valuations(m) for v, m in witness.items()}
    print("witness valuations pass relations:", qdr_membership(rep, mus))
    print("witness valuations pass containment:", qdr_membership_via_containment(rep, mus))
    print("witness verifies:", trop_qgr_witness_check(rep, mus, witness))


def nonrealizable_example():
    heading("a nonrealizable point: the loop diag(1, 1+t) on [2], dimension 1")
    rep = QuiverRepresentation(
        2, ["v"], [RepArrow("v", "v", field=FieldMatrix([[one, zero], [zero, one + t]]))], {"v": 1}
    )
    for _, _, classical, _ in quiver_pluecker_relations(rep, 0):
        print("the relation:", [(m, str(c)) for m, c in classical])
    mus = {"v": rank1(2, (0, 0))}
    print("(0, 0) by relations:", qdr_membership(rep, mus))
    print("(0, 0) by containment:", qdr_membership_via_containment(rep, mus))
    for name, span in (("span(e1)", FieldMatrix([[one, zero]])),
                       ("span(e1+e2)", FieldMatrix([[one, one]])),
                       ("span(e1+t*e2)", FieldMatrix([[one, t]]))):
        mus = {"v": pluecker_valuations(span)}
        print("witness %s:" % name, trop_qgr_witness_check(rep, mus, {"v": span}))


EXAMPLES = {
    "induced": induced_matroid_example,
    "kronecker": kronecker_example,
    "diagonal": diagonal_family_example,
    "towers": two_towers_example,
    "nonrealizable": nonrealizable_example,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names",
        nargs="*",
        metavar="name",
        help="examples to run: %s (default: all)" % ", ".join(EXAMPLES),
    )
    args = parser.parse_args()
    unknown = [n for n in args.names if n not in EXAMPLES]
    if unknown:
        parser.error("unknown example(s): %s" % ", ".join(unknown))
    for name in args.names or EXAMPLES:
        EXAMPLES[name]()


if __name__ == "__main__":
    main()
