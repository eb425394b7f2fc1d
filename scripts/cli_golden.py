#!/usr/bin/env python3
"""Print one sha256 over the command line's output on a fixed set of
inputs, so that two versions of the library can be compared byte for byte.

    PYTHONPATH=src python3 scripts/cli_golden.py --seeds 1 2 3

tropquiver is imported from PYTHONPATH, so pointing it at another
checkout's src/ gives that version's digest.  Everything runs in process:

- every op of the benchmark's cli_mixed cycle for each seed, on the
  fixtures that bench/workloads.build_cli_mixed writes into a temporary
  directory;
- --help for the top level and for every subcommand, and the argvs that
  argparse answers itself (tests/test_cli.py, USAGE_ARGVS);
- inputs that exit 2: malformed JSON, a missing file, one input past the
  cap of each capped walk, and the rejected inputs of tests/test_cli.py
  (EXIT_2);
- exchange-axiom and quotient inputs at both ends of its walks: the
  sparse n = 12 table of tests/test_cli.py (SPARSE_12), and lowered
  tables on n = 8 (bench/generators.lowered), which are rejected;
- field inputs with rational exponents and coefficients
  (tests/test_minor_reference.py, rational_matrix): a qgr-witness-check
  that accepts, one rejected at its subrepresentation check, and realize;
- every command that reads a matroid, accepted and rejected, on inputs
  whose matroids have different denominators (mixed_scale_inputs);
- qdr-check with and without --cross-check on quivers with a loop, accepted
  and rejected, and relations on one of them (loop_inputs);
- relations on a tropical arrow whose relations dedupe by a projective
  shift, on a field arrow with rational entries, on two parallel arrows
  whose relations dedupe against each other, on a quiver without
  relations, and on a loop whose merged coefficient is past the int-to-str
  digit limit, which exits 2 (relation_inputs);
- qgr-witness-check on quivers with two arrows into one vertex, a loop, a
  vertex that no arrow touches, a rank-deficient witness, and a tropical
  arrow behind a rejecting field arrow (witness_inputs);
- field inputs whose matrices differ in their exponent scales, whose rows
  differ in their coefficient denominators, a field arrow beside a
  tropical one with a third exponent denominator, and a weakly monomial
  matrix with rational entries (storage_inputs);
- realize on a matrix whose leading terms cancel in a maximal minor, and
  qgr-witness-check on targets whose first nonzero maximal minor is not
  on their first columns, accepted and rejected (pivot_inputs);
- relations on one vertex with a loop, where the vertex's relations repeat
  (the four copies of each three-term relation) and loop relations dedupe
  against them, and check-matroid on tables whose failing relations all
  have three terms, or all have more (vertex_inputs);
- check-matroid on tables with full support, whose exchange axiom the
  three-term relations decide: ranks 1 and n - 1, which have none and are
  accepted, and a lowered rank-3 table at n = 8, which they reject
  (full_support_inputs);
- qdr-check with and without --cross-check, flag-check and quotient on
  independent full-support realizations under the identity, which the
  incidence kernel rejects, and quotient whose upper table fails its
  three-term check (incidence_inputs);
- relations where a monomial's source factor is not always first: an
  arrow w -> u, whose target's name sorts first, and arrows from a
  higher-rank vertex to a lower-rank one, on both layers and with both
  name orders (order_inputs).

Each output enters the hash as the exact text the command wrote, with
two edits: the value of elapsed_ms is masked and input paths are reduced
to their base names.  Whitespace, indentation and key order are compared.
Each record also holds the sha256 of what the command wrote to stderr
(usage errors), its paths reduced the same way.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")]

import generators as gen  # noqa: E402
from test_cli import EXIT_2, SPARSE_12, USAGE_ARGVS  # noqa: E402
from test_minor_reference import rational_matrix, rational_puiseux  # noqa: E402
from tropquiver import cli  # noqa: E402
from tropquiver.matroid import tls_equal  # noqa: E402
from tropquiver.puiseux import (  # noqa: E402
    FieldMatrix,
    PuiseuxElement,
    classical_containment,
    pluecker_valuations,
    rank_via_minors,
)
from workloads import build_cli_mixed  # noqa: E402


def _identity(n):
    return [["0" if i == j else "inf" for j in range(n)] for i in range(n)]


def _uniform(n, r):
    return {"n": n, "r": r,
            "values": [[list(b), "0"] for b in combinations(range(1, n + 1), r)]}


# n = 30, rank 15, one finite basis: every subset walk is far past the cap;
# U(12, 6) has 924 bases, past the cap of the exchange walk
M30 = {"n": 30, "r": 15, "values": [[list(range(1, 16)), "0"]]}
Q30 = {"n": 30, "vertices": ["u", "w"], "dim": {"u": 15, "w": 15},
       "arrows": [{"src": "u", "dst": "w", "matrix_trop": _identity(30)}]}
OVER_CAP = [
    ("circuits", [("m30", M30)]),
    ("cocircuits", [("m30", M30)]),
    ("tls-member", [("m30", M30), ("point30", ["0"] * 30)]),
    ("induce", [("m30", M30), ("map30", {"n": 30, "f": [
        {"i": i, "to": i, "shift": "0"} for i in range(1, 31)]})]),
    ("containment-check", [("identity30", _identity(30)), ("m30", M30), ("m30", M30)]),
    ("qdr-check", [("quiver30", Q30), ("tuple30", {"u": M30, "w": M30})]),
    ("relations", [("quiver30", Q30)]),
    ("check-matroid", [("u12_6", _uniform(12, 6))]),
]


def exchange_inputs():
    """check-matroid, quotient and flag-check on SPARSE_12, where pairs of
    bases are few, and on dense n = 8 tables with one basis lowered."""
    rng = random.Random("cli_golden:lowered8")
    lo, hi = (gen.table(m) for m in gen.nested_matroids(rng, 8, (3, 5)))
    bad_lo, bad_hi = gen.lowered(lo, above=hi), gen.lowered(hi)
    lo8, hi8 = gen.enc_matroid(8, 3, bad_lo), gen.enc_matroid(8, 5, hi)
    return [
        ("check-matroid", [("sparse12", SPARSE_12)]),
        ("quotient", [("sparse12", SPARSE_12), ("sparse12", SPARSE_12)]),
        ("check-matroid", [("hi8_lowered", gen.enc_matroid(8, 5, bad_hi))]),
        ("quotient", [("lo8_lowered", lo8), ("hi8", hi8)]),
        ("flag-check", [("flag8_lowered", [lo8, hi8])]),
    ]


def _scaled(values, shift):
    """values divided by 6 and raised by shift."""
    return {k: v / 6 + shift for k, v in values.items()}


def mixed_scale_inputs():
    """Each matroid command, accepted and rejected, on matroids of different
    denominators: every value of the dense n = 8 tables of exchange_inputs
    (ranks 3 and 5) and of SPARSE_12 divided by 6, mu's then raised by 1/2
    and nu's by 1/5, so that mu's values have scale 6 and nu's 30.  The
    tropical identity and the arrow's valuations (all 0), a point's
    coordinates and a map's shifts are divided by 6 too, and the point is
    raised by 1/2.  Dividing every input by one positive factor keeps each
    verdict, and so does raising all of one matroid's values, or of a
    point's coordinates, by one constant.  induce has no rejection: it runs
    on a bijection and on a map that sends some elements to the origin."""
    n, half, fifth = 8, Fraction(1, 2), Fraction(1, 5)
    top = gen.nested_realizations(random.Random("cli_golden:lowered8"), n, (3, 5))
    lo, hi = (gen.table(pluecker_valuations(m)) for m in top)
    other = gen.table(gen.nested_matroids(random.Random("cli_golden:other8"), n, (3, 5))[1])
    bad_lo, bad_hi = gen.lowered(lo, above=hi), gen.lowered(hi)
    sparse = {tuple(b): Fraction(v) for b, v in SPARSE_12["values"]}
    rng = random.Random("cli_golden:mixed_scale")
    _, targets, shifts = gen.monomial_map(rng, n, zero_rows=False)
    induced = gen.induced_by_bijection(hi, 5, n, targets, shifts)
    _, wm_targets, wm_shifts = gen.monomial_map(rng, n, zero_rows=True)

    def mu(name, values, r, size=n):
        return name + "_mu", gen.enc_matroid(size, r, _scaled(values, half))

    def nu(name, values, r, size=n):
        return name + "_nu", gen.enc_matroid(size, r, _scaled(values, fifth))

    def point(name, coords):
        return name, [gen.enc_value(x / 6 + half) for x in coords]

    def ground_map(name, targets, shifts):
        return name, gen.enc_map(targets, [None if s is None else s / 6 for s in shifts])

    coords = [min(x for x, _ in e.terms()) for e in top[1].rows[0]]
    far = list(coords)
    far[next(k for k in range(n) if any(k + 1 not in b for b in hi))] -= gen.DROP  # not a coloop
    identity = ("identity8", gen.enc_trop_identity(n))
    chain = ("chain8", gen.enc_quiver(n, ["v1", "v2"], [("v1", "v2", FieldMatrix.identity(n))],
                                      {"v1": 3, "v2": 5}))
    bijection = ground_map("bij8", targets, shifts)
    return [
        ("check-matroid", [nu("sparse12", sparse, 6, 12)]),
        ("check-matroid", [nu("hi8_lowered", bad_hi, 5)]),
        ("quotient", [mu("sparse12", sparse, 6, 12), nu("sparse12", sparse, 6, 12)]),
        ("quotient", [mu("lo8", lo, 3), nu("hi8", hi, 5)]),
        ("quotient", [mu("lo8_lowered", bad_lo, 3), nu("hi8", hi, 5)]),
        ("flag-check", [("flag8_mixed", [mu("lo8", lo, 3)[1], nu("hi8", hi, 5)[1]])]),
        ("flag-check", [("flag8_mixed_lowered", [mu("lo8", bad_lo, 3)[1], nu("hi8", hi, 5)[1]])]),
        ("tls-member", [nu("hi8", hi, 5), point("point8", coords)]),
        ("tls-member", [nu("hi8", hi, 5), point("point8_far", far)]),
        ("containment-check", [identity, mu("lo8", lo, 3), nu("hi8", hi, 5)]),
        ("containment-check", [identity, mu("hi8", hi, 5), nu("lo8", lo, 3)]),
        ("qdr-check --cross-check", [chain, ("chain8_tuple", {"v1": mu("lo8", lo, 3)[1],
                                                              "v2": nu("hi8", hi, 5)[1]})]),
        ("qdr-check --cross-check", [chain, ("chain8_tuple_other", {"v1": mu("lo8", lo, 3)[1],
                                                                    "v2": nu("other8", other, 5)[1]})]),
        ("induce", [nu("hi8", hi, 5), bijection]),
        ("induce", [nu("hi8", hi, 5), ground_map("wm8", wm_targets, wm_shifts)]),
        ("morphism-check", [bijection, mu("induced8", induced, 5), nu("hi8", hi, 5)]),
        ("morphism-check", [bijection, mu("induced8_lowered", gen.lowered(induced), 5),
                            nu("hi8", hi, 5)]),
    ]


def _field(rows):
    """A field matrix in JSON from rows of {exponent: coefficient} dicts."""
    return [[[{"c": c, "e": e} for e, c in entry.items()] for entry in row] for row in rows]


def _point(*coords):
    """The rank-1 matroid of a point in JSON, None an infinite coordinate."""
    return gen.enc_matroid(len(coords), 1, {(i,): x for i, x in enumerate(coords, 1)})


# A = diag(1, 1 + t) at n = 2 (README, tests/test_quiver.py,
# TestNonrealizablePoint): its merged relation t p_1 p_2 rejects every point
# with both coordinates finite
DIAG_LOOP = {"n": 2, "vertices": ["v"], "dim": {"v": 1}, "arrows": [
    {"src": "v", "dst": "v", "matrix_field": _field([[{"0": "1"}, {}],
                                                     [{}, {"0": "1", "1": "1"}]])}]}
# the tropical identity loop (tests/test_quiver.py, TestContainment,
# test_loop_separates_the_routes_the_other_way): both diagonal entries give
# p_1 p_2, merged by minimum
TROP_LOOP = {"n": 2, "vertices": ["v"], "dim": {"v": 1}, "arrows": [
    {"src": "v", "dst": "v", "matrix_trop": _identity(2)}]}
# a field loop at n = 3 with exponents over 2 and 3
RATIONAL_A = _field([
    [{"1/3": "1"}, {"1/3": "-3/2", "4/3": "-3/2"}, {"2/3": "1/2", "4/3": "1/2"}],
    [{}, {"-1/2": "2", "0": "-3/2"}, {"-1/2": "-1"}],
    [{}, {"0": "1/2", "2/3": "-1"}, {"0": "2", "2/3": "1"}],
])
RATIONAL_LOOP = {"n": 3, "vertices": ["v"], "dim": {"v": 1}, "arrows": [
    {"src": "v", "dst": "v", "matrix_field": RATIONAL_A}]}
# the same loop at u behind a tropical identity arrow u -> w
MIXED_LOOP = {"n": 3, "vertices": ["u", "w"], "dim": {"u": 1, "w": 2}, "arrows": [
    {"src": "u", "dst": "w", "matrix_trop": _identity(3)},
    {"src": "u", "dst": "u", "matrix_field": RATIONAL_A}]}
W_FIFTHS = gen.enc_matroid(3, 2, {(1, 2): Fraction(1, 5), (1, 3): Fraction(1, 5),
                                  (2, 3): Fraction(3, 5)})


def loop_inputs():
    """qdr-check with and without --cross-check on quivers with a loop: the
    loop diag(1, 1 + t) at (0, 0), rejected by its merged relation, and at
    (0, inf), accepted; the tropical identity loop at (0, 0), rejected by
    the relation route and accepted by containment; the rational loop at a
    point over 5ths that the relation route accepts (containment rejects)
    and at one that both reject; and that loop behind a loop-free arrow,
    which both points pass, so that the loop decides.  relations on the
    rational loop."""
    fifths = [Fraction(k, 5) for k in (2, 4, 4, 6)]
    accepted, rejected = _point(*fifths[:3]), _point(*fifths[:2], fifths[3])
    pairs = [
        (("diag_loop", DIAG_LOOP), ("diag_loop_00", {"v": _point(0, 0)})),
        (("diag_loop", DIAG_LOOP), ("diag_loop_0inf", {"v": _point(0, None)})),
        (("trop_loop", TROP_LOOP), ("trop_loop_00", {"v": _point(0, 0)})),
        (("rational_loop", RATIONAL_LOOP), ("rational_loop_in", {"v": accepted})),
        (("rational_loop", RATIONAL_LOOP), ("rational_loop_out", {"v": rejected})),
        (("mixed_loop", MIXED_LOOP), ("mixed_loop_in", {"u": accepted, "w": W_FIFTHS})),
        (("mixed_loop", MIXED_LOOP), ("mixed_loop_out", {"u": rejected, "w": W_FIFTHS})),
    ]
    return ([(command, list(files)) for files in pairs
             for command in ("qdr-check", "qdr-check --cross-check")]
            + [("relations", [("rational_loop", RATIONAL_LOOP)])])


def rational_inputs():
    """qgr-witness-check on an n = 5 arrow u -> w with rational entries,
    ranks (2, 3): V stacks A·U on one more row, and its broken copy has a
    column zeroed where A·U is nonzero.  realize on a rational 3 x 6
    matrix of full row rank."""
    rng = random.Random("cli_golden:rational")
    while True:
        a, u = rational_matrix(rng, 5, 5), rational_matrix(rng, 2, 5)
        v = FieldMatrix([a.matvec(row) for row in u.rows] + list(rational_matrix(rng, 1, 5).rows))
        broken = gen.broken_target(rng, a, u, v) if rank_via_minors(u) == 2 else None
        if broken is not None and rank_via_minors(v) == 3:
            break
    while True:
        m = rational_matrix(rng, 3, 6)
        if rank_via_minors(m) == 3:
            break
    quiver = gen.enc_quiver(5, ["u", "w"], [("u", "w", a)], {"u": 2, "w": 3})
    mus = {"u": gen.enc_matroid(5, 2, gen.table(pluecker_valuations(u))),
           "w": gen.enc_matroid(5, 3, gen.table(pluecker_valuations(v)))}
    inputs = [("quiver_q", quiver), ("tuple_q", mus)]
    return [
        ("qgr-witness-check", inputs + [("witness_q", {"u": gen.enc_field(u), "w": gen.enc_field(v)})]),
        ("qgr-witness-check", inputs + [("witness_q_broken", {"u": gen.enc_field(u),
                                                               "w": gen.enc_field(broken)})]),
        ("realize", [("matrix_q", gen.enc_field(m))]),
    ]


# n = 4, ranks (2, 2): 14 of the arrow's 16 relations are kept, the other
# two being projective shifts of kept ones
TROP_DEDUPE = {"n": 4, "vertices": ["u", "w"], "dim": {"u": 2, "w": 2}, "arrows": [
    {"src": "u", "dst": "w", "matrix_trop": [["inf"] * 4, ["0", "-2/3", "inf", "inf"],
                                            ["inf"] * 4, ["inf", "inf", "1", "0"]]}]}
# the zero arrow between two rank-1 vertices: no relation at all
NO_RELATIONS = {"n": 3, "vertices": ["u", "w"], "dim": {"u": 1, "w": 1}, "arrows": [
    {"src": "u", "dst": "w", "matrix_field": [["0"] * 3] * 3}]}
# diag(1/10^4299, 1/(10^4299 - 1)): its two diagonal terms share the
# monomial p_1 p_2 and merge to 1/L, L the lcm of the two denominators,
# whose 8598 digits are past the int-to-str limit
BIG = 10 ** 4299
BIG_LOOP = {"n": 2, "vertices": ["u"], "dim": {"u": 1}, "arrows": [
    {"src": "u", "dst": "u", "matrix_field": [["1/%d" % BIG, "0"], ["0", "1/%d" % (BIG - 1)]]}]}


def relation_inputs():
    """relations on TROP_DEDUPE; on a field arrow u -> w with rational
    entries, n = 4, ranks (2, 3); on two parallel arrows u -> w, RATIONAL_A
    and 2t times it, whose relations are proportional, so the second
    arrow's are dropped; on NO_RELATIONS; and on BIG_LOOP, which exits 2."""
    a = rational_matrix(random.Random("cli_golden:relations"), 4, 4)
    rational = gen.enc_quiver(4, ["u", "w"], [("u", "w", a)], {"u": 2, "w": 3})
    doubled = [[[{"c": str(2 * Fraction(t["c"])), "e": str(Fraction(t["e"]) + 1)} for t in entry]
                for entry in row] for row in RATIONAL_A]
    parallel = {"n": 3, "vertices": ["u", "w"], "dim": {"u": 1, "w": 2}, "arrows": [
        {"src": "u", "dst": "w", "matrix_field": RATIONAL_A},
        {"src": "u", "dst": "w", "matrix_field": doubled}]}
    return [("relations", [files]) for files in [
        ("trop_dedupe", TROP_DEDUPE), ("rational_arrow", rational), ("parallel", parallel),
        ("no_relations", NO_RELATIONS), ("big_loop", BIG_LOOP)]]


def _full_rank(rng, d, n):
    """A rational d x n matrix of full row rank."""
    while True:
        m = rational_matrix(rng, d, n)
        if rank_via_minors(m) == d:
            return m


def _witness_case(name, n, arrows, dim, witness, mus=None):
    """A qgr-witness-check input: arrows are (src, dst, field matrix or
    None, tropical rows or None), and mus defaults to the witness's own
    Pluecker valuations."""
    if mus is None:
        mus = {v: pluecker_valuations(m) for v, m in witness.items()}
    quiver = {"n": n, "vertices": list(dim), "dim": dim, "arrows": [
        dict({"src": s, "dst": d},
             **({} if a is None else {"matrix_field": gen.enc_field(a)}),
             **({} if t is None else {"matrix_trop": t}))
        for s, d, a, t in arrows]}
    tup = {v: gen.enc_matroid(n, m.r, gen.table(m)) for v, m in mus.items()}
    return ("qgr-witness-check", [(name, quiver), (name + "_tuple", tup),
                                  (name + "_witness", {v: gen.enc_field(m)
                                                       for v, m in witness.items()})])


def witness_inputs():
    """qgr-witness-check on rational data, n = 4 unless said otherwise:
    - two arrows u -> w and x -> w, ranks (1, 1, 2): a witness that is
      accepted, one rejected at arrow 1 (arrow 0 contained), and one whose
      tuple differs at x, the second vertex (valuation-mismatch);
    - a loop A at a rank-2 vertex with A^2 = 0 and the witness [v; A·v],
      accepted, and with its second row replaced, rejected;
    - u -> w with a vertex z that no arrow touches, ranks (1, 2, 2), n = 3:
      accepted, and with z = [[1, 0, 0], [2, 0, 0]], rank-deficient (exit 2);
    - a rank-deficient source of rank 2 (exit 2);
    - a field arrow that rejects, then an arrow with a tropical layer only:
      the check stops at arrow 0 (exit 1)."""
    rng = random.Random("cli_golden:witness")
    n = 4
    a, b = rational_matrix(rng, n, n), rational_matrix(rng, n, n)
    while True:
        u, x = _full_rank(rng, 1, n), _full_rank(rng, 1, n)
        w = FieldMatrix([a.matvec(u.rows[0]), b.matvec(x.rows[0])])
        w_bad = FieldMatrix([a.matvec(u.rows[0])] + list(rational_matrix(rng, 1, n).rows))
        other_x = _full_rank(rng, 1, n)
        if (rank_via_minors(w) == rank_via_minors(w_bad) == 2
                and not classical_containment(b, x, w_bad)
                and not tls_equal(pluecker_valuations(x), pluecker_valuations(other_x))):
            break
    two = [("u", "w", a, None), ("x", "w", b, None)]
    dim = {"u": 1, "x": 1, "w": 2}
    mismatch = {"u": pluecker_valuations(u), "x": pluecker_valuations(other_x),
                "w": pluecker_valuations(w)}

    t = PuiseuxElement.monomial
    nil = FieldMatrix([[0] * n, [t(Fraction(3, 2), Fraction(1, 3))] + [0] * (n - 1),
                       [t(-2, Fraction(1, 2))] + [0] * (n - 1), [0] * n])  # nil^2 = 0
    first = _full_rank(rng, 1, n).rows[0]
    loop = FieldMatrix([first, nil.matvec(first)])
    loop_bad = FieldMatrix([first] + list(rational_matrix(rng, 1, n).rows))
    assert rank_via_minors(loop) == rank_via_minors(loop_bad) == 2
    assert not classical_containment(nil, loop_bad, loop_bad)

    c = rational_matrix(rng, 3, 3)
    while True:
        u3 = _full_rank(rng, 1, 3)
        w3 = FieldMatrix([c.matvec(u3.rows[0])] + list(rational_matrix(rng, 1, 3).rows))
        if rank_via_minors(w3) == 2:
            break
    z = _full_rank(rng, 2, 3)
    isolated = [("u", "w", c, None)]
    dim3 = {"u": 1, "w": 2, "z": 2}
    flat_z = FieldMatrix([[1, 0, 0], [2, 0, 0]])
    deficient = FieldMatrix([u.rows[0], [2 * e for e in u.rows[0]]])
    trop_only = [["0" if i == j else "inf" for j in range(n)] for i in range(n)]
    return [
        _witness_case("two_arrows", n, two, dim, {"u": u, "x": x, "w": w}),
        _witness_case("two_arrows_bad", n, two, dim, {"u": u, "x": x, "w": w_bad}),
        _witness_case("two_arrows_mismatch", n, two, dim, {"u": u, "x": x, "w": w}, mismatch),
        _witness_case("loop", n, [("v", "v", nil, None)], {"v": 2}, {"v": loop}),
        _witness_case("loop_bad", n, [("v", "v", nil, None)], {"v": 2}, {"v": loop_bad}),
        _witness_case("isolated", 3, isolated, dim3, {"u": u3, "w": w3, "z": z}),
        _witness_case("isolated_deficient", 3, isolated, dim3, {"u": u3, "w": w3, "z": flat_z},
                      {"u": pluecker_valuations(u3), "w": pluecker_valuations(w3),
                       "z": pluecker_valuations(z)}),
        _witness_case("deficient_source", n, [("u", "w", a, None)], {"u": 2, "w": 2},
                      {"u": deficient, "w": w}, {"u": pluecker_valuations(w),
                                                 "w": pluecker_valuations(w)}),
        _witness_case("field_then_trop", n, [("u", "w", b, None), ("u", "w", None, trop_only)],
                      {"u": 1, "w": 2}, {"u": x, "w": w_bad},
                      {"u": pluecker_valuations(x), "w": pluecker_valuations(w_bad)}),
    ]


def _with_coefficients_over(rng, dens, n, exp_dens):
    """A field matrix with one row per coefficient denominator in dens."""
    return FieldMatrix([[rational_puiseux(rng, den, exp_dens=exp_dens) for _ in range(n)]
                        for den in dens])


def storage_inputs():
    """Field inputs whose matrices have different scales, n = 4:
    - qgr-witness-check on an arrow u -> w with exponents over 2 and a
      witness with exponents over 3 (at u) and over 3 and 5 (at w), ranks
      (1, 2): accepted, and rejected at its arrow;
    - realize on a 3 x 5 matrix whose rows have coefficients over 3, 7
      and 4, and exponents over 2;
    - relations on a field arrow u -> w with exponents over 2 and 3 and a
      tropical arrow x -> w with values over 7, ranks (2, 2, 1);
    - monomial-decompose on a weakly monomial matrix with a zero row, a
      binomial entry and rational exponents and coefficients."""
    rng = random.Random("cli_golden:storage")
    a = rational_matrix(rng, 4, 4, exp_dens=(2,))
    while True:
        u = _with_coefficients_over(rng, [9], 4, (3,))
        w = FieldMatrix([a.matvec(u.rows[0])] + list(_with_coefficients_over(rng, [7], 4, (5,)).rows))
        w_bad = _with_coefficients_over(rng, [5, 7], 4, (3, 5))
        if (rank_via_minors(u) == 1 and rank_via_minors(w) == rank_via_minors(w_bad) == 2
                and not classical_containment(a, u, w_bad)):
            break
    while True:
        m = _with_coefficients_over(rng, [3, 7, 4], 5, (2,))
        if rank_via_minors(m) == 3:
            break
    quiver = {"n": 4, "vertices": ["u", "w", "x"], "dim": {"u": 2, "w": 2, "x": 1}, "arrows": [
        {"src": "u", "dst": "w", "matrix_field": gen.enc_field(rational_matrix(rng, 4, 4, (2, 3)))},
        {"src": "x", "dst": "w", "matrix_trop": [["1/7", "inf", "-3/7", "inf"], ["inf"] * 4,
                                                 ["0", "2", "inf", "5/7"], ["inf", "-1", "inf", "inf"]]}]}
    monomial = _field([[{}, {"1/3": "3/4"}, {}, {}], [{}, {}, {}, {}],
                       [{"-1/2": "-2/5", "2/3": "7"}, {}, {}, {}], [{}, {}, {}, {"5/2": "-1/6"}]])
    mus = {"u": pluecker_valuations(u), "w": pluecker_valuations(w)}
    return [
        _witness_case("scales", 4, [("u", "w", a, None)], {"u": 1, "w": 2}, {"u": u, "w": w}),
        _witness_case("scales_bad", 4, [("u", "w", a, None)], {"u": 1, "w": 2},
                      {"u": u, "w": w_bad}, mus),
        ("realize", [("matrix_rows_scaled", gen.enc_field(m))]),
        ("relations", [("field_and_sevenths", quiver)]),
        ("monomial-decompose", [("monomial_rational", monomial)]),
    ]


def pivot_inputs():
    """n = 4 unless said otherwise:
    - realize on a 3 x 5 matrix with rows (1, 1 + t, 2, ...) over
      (1, 1, t, ...) and (0, 0, 1, ...): the leading terms of its minor on
      columns 1, 2, 3 cancel, and that minor is -t;
    - qgr-witness-check on an arrow u -> w, ranks (1, 2), whose rational A
      has its second row twice its first, so that every image and the
      target w have their second column twice their first and w's minor on
      columns 1, 2 is zero: accepted, and with another u, whose image is not
      in rowspan(w), rejected at the arrow (subrepresentation)."""
    t, c = PuiseuxElement.t_power, PuiseuxElement.monomial
    cancelling = FieldMatrix([[1, 1 + t(1), 2, t(Fraction(1, 2)), 0],
                              [1, 1, t(1), 3, -1],
                              [0, 0, 1, t(1), c(Fraction(1, 2), Fraction(2, 3))]])
    rng = random.Random("cli_golden:pivot")
    n = 4
    while True:
        rows = [list(r) for r in rational_matrix(rng, n, n).rows]
        a = FieldMatrix([rows[0], [2 * x for x in rows[0]]] + rows[2:])
        u, u_out = _full_rank(rng, 1, n), _full_rank(rng, 1, n)
        extra = list(rational_matrix(rng, 1, n).rows[0])
        w = FieldMatrix([a.matvec(u.rows[0]), [extra[0], 2 * extra[0]] + extra[2:]])
        if rank_via_minors(w) == 2 and not classical_containment(a, u_out, w):
            break
    arrow = [("u", "w", a, None)]
    return [
        ("realize", [("matrix_cancelling", gen.enc_field(cancelling))]),
        _witness_case("pivot", n, arrow, {"u": 1, "w": 2}, {"u": u, "w": w}),
        _witness_case("pivot_bad", n, arrow, {"u": 1, "w": 2}, {"u": u_out, "w": w}),
    ]


def _diagonal(entries):
    """A field matrix in JSON with the given diagonal entries, zero elsewhere."""
    n = len(entries)
    return _field([[entries[i] if i == j else {} for j in range(n)] for i in range(n)])


def _loop(n, rank, **matrix):
    return {"n": n, "vertices": ["v"], "dim": {"v": rank}, "arrows": [
        dict({"src": "v", "dst": "v"}, **matrix)]}


def vertex_inputs():
    """Relations of one matroid under the identity, which repeat: each
    three-term relation shows up as four (I, J) pairs.
    - relations on a rank-2 vertex at n = 5 with the field identity loop,
      each of whose relations is a multiple of a three-term relation of the
      vertex; with the loop diag(1, 1 + t, 1, 1, 1), whose relations
      through element 2 are not; and on a rank-3 vertex at n = 6 with a
      tropical loop (a diagonal and one entry off it);
    - check-matroid on a lowered rank-3 table at n = 6 whose lowered basis
      {1, 2, 3} has a complement {4, 5, 6} that is no basis, so that every
      failing relation has three terms (the relation walk decides: 19
      bases), and on the table with bases {1, 2, 3} and {4, 5, 6} only,
      whose failing relations, I two elements of one basis and J their
      complement, have four terms each (the exchange loop decides).  No
      lowered table fails only relations of four or more terms: its
      support is a matroid, and on a matroid support a failing relation
      implies a failing three-term one (Dress-Wenzel)."""
    one = {"0": "1"}
    rng = random.Random("cli_golden:three_term")
    while True:
        rows = [list(r) for r in rational_matrix(rng, 3, 6).rows]
        rows[2][3:] = [0, 0, 0]  # columns 4, 5, 6 in a plane: {4, 5, 6} is no basis
        m = FieldMatrix(rows)
        if rank_via_minors(m) == 3:
            break
    trop = [["inf"] * 6 for _ in range(6)]
    for i, x in enumerate(["0", "1/2", "0", "-1", "0", "2"]):
        trop[i][i] = x
    trop[0][1] = "3"
    return [
        ("relations", [("identity_loop5", _loop(5, 2, matrix_field=_diagonal([one] * 5)))]),
        ("relations", [("diag_loop5", _loop(5, 2, matrix_field=_diagonal(
            [one, {"0": "1", "1": "1"}, one, one, one])))]),
        ("relations", [("trop_loop6", _loop(6, 3, matrix_trop=trop))]),
        ("check-matroid", [("three_term6_lowered", gen.enc_matroid(
            6, 3, gen.lowered(gen.table(pluecker_valuations(m)))))]),
        ("check-matroid", [("two_bases6", gen.enc_matroid(6, 3, {(1, 2, 3): 0, (4, 5, 6): 0}))]),
    ]


def full_support_inputs():
    """check-matroid on tables with full support, whose exchange axiom the
    three-term relations decide: a rank-1 table with unequal values and a
    rank-4 table at n = 5, which have no three-term relation and are
    accepted, and a rank-3 table at n = 8 with one basis lowered, which the
    three-term relations reject and the exchange loop names the triple of."""
    rng = random.Random("cli_golden:full_support")
    corank1 = {b: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
               for b in combinations(range(1, 6), 4)}
    lo = gen.table(gen.nested_matroids(rng, 8, (3,))[0])
    return [
        ("check-matroid", [("rank1_full4", gen.enc_matroid(
            4, 1, {(1,): 0, (2,): Fraction(1, 2), (3,): -3, (4,): 2}))]),
        ("check-matroid", [("corank1_full5", gen.enc_matroid(5, 4, corank1))]),
        ("check-matroid", [("full8_lowered", gen.enc_matroid(8, 3, gen.lowered(lo)))]),
    ]


def incidence_inputs():
    """Identity arrows and quotients of full-support matroids, whose
    incidence relations the kernel decides when the higher-rank matroid is
    valuated.  Independent realizations, which it rejects, so the walk
    names the certificate: qdr-check with and without --cross-check on a
    field identity arrow at n = 6, ranks (2, 4), and on a chain of tropical
    identity arrows at n = 7, ranks (2, 4, 5), whose first arrow is nested
    and accepted and whose second is rejected; flag-check and quotient on
    the n = 6 pair.  And quotient of a nested pair at n = 6 whose upper
    table is lowered, so that it fails its three-term check and the walk
    decides."""
    rng = random.Random("cli_golden:incidence")

    def full(realize, n, ranks):
        while True:
            tables = [gen.table(m) for m in realize(rng, n, ranks)]
            if all(len(t) == comb(n, r) for t, r in zip(tables, ranks)):
                return [gen.enc_matroid(n, r, t) for t, r in zip(tables, ranks)], tables

    def independent(rng, n, ranks):
        return [pluecker_valuations(gen.full_rank_matrix(rng, r, n, gen.rand_monomial))
                for r in ranks]

    (mu6, nu6), _ = full(independent, 6, (2, 4))
    (v1, v2), _ = full(gen.nested_matroids, 7, (2, 4))
    (v3,), _ = full(independent, 7, (5,))
    (lo6, _), (_, hi6) = full(gen.nested_matroids, 6, (2, 4))
    pair6 = gen.enc_quiver(6, ["u", "w"], [("u", "w", FieldMatrix.identity(6))], {"u": 2, "w": 4})
    chain7 = {"n": 7, "vertices": ["v1", "v2", "v3"], "dim": {"v1": 2, "v2": 4, "v3": 5},
              "arrows": [{"src": a, "dst": b, "matrix_trop": _identity(7)}
                         for a, b in (("v1", "v2"), ("v2", "v3"))]}
    qdr = [(("pair6", pair6), ("independent6", {"u": mu6, "w": nu6})),
           (("chain7", chain7), ("chain7_independent", {"v1": v1, "v2": v2, "v3": v3}))]
    return ([(command, list(files)) for files in qdr
             for command in ("qdr-check", "qdr-check --cross-check")]
            + [("flag-check", [("flag6_independent", [mu6, nu6])]),
               ("quotient", [("mu6_independent", mu6), ("nu6_independent", nu6)]),
               ("quotient", [("lo6", lo6), ("hi6_lowered", gen.enc_matroid(6, 4, gen.lowered(hi6)))])])


def order_inputs():
    """relations on quivers whose monomials do not list the source factor
    first, or whose factors have more elements on the source side: a
    tropical arrow w -> u, ranks (2, 3), at n = 5, whose monomials list
    the target's factor first; a field arrow u -> w with rational entries
    from rank 3 down to rank 2 at n = 4; and a field arrow w -> u from
    rank 3 down to rank 1 at n = 4 beside a tropical loop on u."""
    rng = random.Random("cli_golden:order")
    trop = [[gen.enc_value(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
             if rng.random() < 0.6 else "inf" for _ in range(5)] for _ in range(5)]
    target_first = {"n": 5, "vertices": ["u", "w"], "dim": {"u": 3, "w": 2},
                    "arrows": [{"src": "w", "dst": "u", "matrix_trop": trop}]}
    falling = gen.enc_quiver(4, ["u", "w"], [("u", "w", rational_matrix(rng, 4, 4))],
                             {"u": 3, "w": 2})
    both = gen.enc_quiver(4, ["u", "w"], [("w", "u", rational_matrix(rng, 4, 4))],
                          {"u": 1, "w": 3})
    both["arrows"].append({"src": "u", "dst": "u", "matrix_trop": [
        ["0" if i == j else "inf" if (i + j) % 2 else str(i - j) for j in range(4)]
        for i in range(4)]})
    return [("relations", [files]) for files in [
        ("target_first", target_first), ("rank_falling", falling),
        ("target_first_falling", both)]]


_ELAPSED = re.compile(r'"elapsed_ms": [^,\n]*')


def _normalized(code, text, directory):
    """[exit code, output text], with the value of elapsed_ms masked and
    directory cut from every path."""
    text = text.replace(directory + os.sep, "")
    return [code, _ELAPSED.sub('"elapsed_ms": "masked"', text)]


def _captured(run, directory):
    """[exit code, output text, sha256 of stderr] of run(), which returns
    (exit code, output text), normalized as _normalized does."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run()
    err_text = err.getvalue().replace(directory + os.sep, "")
    return _normalized(code, text, directory) + [hashlib.sha256(err_text.encode()).hexdigest()]


def _run(argv, directory):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --help and usage errors
                code = exc.code
        return code, buf.getvalue()

    return _captured(run, directory)


def records(seeds):
    """[label, exit code, output, sha256 of stderr] for every input, in a
    fixed order."""
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        directory = os.path.join(workdir, "fixtures")  # where build_cli_mixed writes
        for seed in seeds:
            for slot in build_cli_mixed(random.Random("cli_mixed:%d" % seed), workdir):
                out.append(["cli_mixed:%d:%s" % (seed, slot.label)]
                           + _captured(slot.run, directory))
        for name in [None] + list(cli.COMMANDS):
            argv = ["--help"] if name is None else [name, "--help"]
            out.append([" ".join(argv)] + _run(argv, directory))
        for argv in USAGE_ARGVS:
            out.append(["usage: " + " ".join(argv)] + _run(argv, directory))
        inputs = [("check-matroid", [("malformed", '{"n": 3, "r": ')]),
                  ("check-matroid", [("missing", None)])] + OVER_CAP
        inputs += [(command, files) for command, files, _ in EXIT_2]
        for command, files in (inputs + exchange_inputs() + rational_inputs() + mixed_scale_inputs()
                               + loop_inputs() + relation_inputs() + witness_inputs()
                               + storage_inputs() + pivot_inputs() + vertex_inputs()
                               + full_support_inputs() + incidence_inputs()
                               + order_inputs()):
            argv = command.split()
            for name, data in files:
                argv.append(os.path.join(directory, name + ".json"))
                if data is not None:
                    with open(argv[-1], "w") as fh:
                        fh.write(data if isinstance(data, str) else json.dumps(data))
            out.append([" ".join([command] + [name for name, _ in files])]
                       + _run(argv, directory))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="cli_mixed seeds (default: 1 2 3)")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    recs = records(args.seeds)
    text = json.dumps(recs, sort_keys=True, separators=(",", ":"))
    print("%s  %d records" % (hashlib.sha256(text.encode()).hexdigest(), len(recs)))


if __name__ == "__main__":
    main()
