"""The realization-witness check against the version it replaced.

``is_subrepresentation`` and ``trop_qgr_witness_check`` below are the
former versions, kept verbatim: one ``classical_containment`` per arrow,
then one ``pluecker_valuations`` per vertex, each scaling and expanding its
matrices anew.  The library must return the same verdict and certificate,
or raise the same exception class with the same message, on every input,
with one deliberate difference: the reference accepts a candidate without
full row rank at a vertex that no arrow touches (is_subrepresentation) or
rejects it only when its valuations are taken (the witness check), where
the library, once every arrow is contained, checks each vertex's rank as it
does at an arrow's end (rank_check below).
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from tropquiver import (
    FieldMatrix,
    PuiseuxElement,
    QuiverRepresentation,
    RepArrow,
    TropMatrix,
    ValuatedMatroid,
    is_subrepresentation as lib_is_subrepresentation,
    pluecker_valuations,
    tls_equal,
    trop_qgr_witness_check as lib_trop_qgr_witness_check,
)
from tropquiver import puiseux
from tropquiver.errors import TropquiverError, UsageError
from tropquiver.puiseux import ZERO, classical_containment, det, rank_via_minors
from tropquiver.quiver import _validate_tuple

from test_minor_reference import rational_matrix
from test_pivot_reference import leading_terms_cancel


def is_subrepresentation(rep: QuiverRepresentation, candidate):
    """Do the candidate row spans form a quiver subrepresentation?

    candidate maps each vertex to a full-row-rank d_i x n field matrix.
    Returns (bool, violating_arrow_index or None).
    """
    if set(candidate) != set(rep.vertices):
        raise UsageError("candidate must be keyed by exactly the vertices")
    for v in rep.vertices:
        m = candidate[v]
        if m.n_rows != rep.dim[v] or m.n_cols != rep.n:
            raise UsageError(
                "candidate at %r must be %dx%d" % (v, rep.dim[v], rep.n)
            )
    for a_idx, arrow in enumerate(rep.arrows):
        if not classical_containment(
            rep.field_matrix(a_idx), candidate[arrow.src], candidate[arrow.dst]
        ):
            return False, a_idx
    return True, None


def trop_qgr_witness_check(rep: QuiverRepresentation, mus, witness):
    """Does the witness certify the matroid tuple as a point of the
    tropicalized quiver Grassmannian?  The witness must be a quiver
    subrepresentation whose Pluecker valuations reproduce each matroid
    projectively.  Returns (bool, certificate)."""
    _validate_tuple(rep, mus)
    ok, a_idx = is_subrepresentation(rep, witness)
    if not ok:
        return False, ("subrepresentation", a_idx)
    for v in rep.vertices:
        realized = pluecker_valuations(witness[v])
        if not tls_equal(realized, mus[v]):
            return False, ("valuation-mismatch", v)
    return True, None


def rank_check(rep, candidate):
    """What the library checks after the arrows: the cap and the rank of
    every vertex's candidate, in vertex order."""
    for v in rep.vertices:
        if rank_via_minors(candidate[v]) < rep.dim[v]:
            raise UsageError("candidate at %r must have full row rank" % (v,))


def outcome(f, *args):
    """("ok", result) or ("raise", exception class, message)."""
    try:
        return "ok", f(*args)
    except TropquiverError as exc:
        return "raise", type(exc), str(exc)


def full_rank(rng, d, n):
    while True:
        m = rational_matrix(rng, d, n)
        if rank_via_minors(m) == d:
            return m


def deficient(rng, d, n):
    """A d x n matrix of rank below d: a zero row, or a row repeated."""
    rows = [list(r) for r in rational_matrix(rng, d, n).rows]
    k = rng.randrange(d)
    rows[k] = [ZERO] * n if d == 1 or rng.random() < 0.5 else rows[k - 1]
    return FieldMatrix(rows)


def random_witness_instance(rng):
    """(rep, mus, witness, kinds): up to three vertices and three arrows,
    loops included, on rational data.  Witness rows of a vertex are the
    images of the rows of its arrows' earlier sources where they fit, then
    random rows; a loop is a scalar multiple of the identity or random.
    Then, sometimes: a vertex's tuple entry swapped for another's valuations,
    a witness made rank-deficient, an arrow with a tropical layer only, or
    n = 9, past the size cap."""
    n = 9 if rng.random() < 0.04 else rng.randint(2, 4)
    names = ["a", "b", "c"][: rng.randint(1, 3)]
    dim = {v: rng.randint(1, 1 if n == 9 else min(3, n)) for v in names}
    arrows = []
    for _ in range(rng.randint(0, 3)):
        src, dst = rng.choice(names), rng.choice(names)
        if src == dst and rng.random() < 0.6:
            a = FieldMatrix([[PuiseuxElement({Fraction(1, 2): Fraction(-2, 3)}) if i == j else 0
                              for j in range(n)] for i in range(n)])
        elif rng.random() < 0.1:
            a = FieldMatrix([[0] * n] * n)
        else:
            a = rational_matrix(rng, n, n)
        arrows.append((src, dst, a))
    witness = {}
    for v in names:
        if n == 9:
            witness[v] = rational_matrix(rng, 1, n)
            continue
        images = [a.matvec(row) for src, dst, a in arrows if dst == v and src != v
                  and src in witness for row in witness[src].rows]
        while True:
            rows = rng.sample(images, min(len(images), dim[v]))
            m = FieldMatrix(rows + list(rational_matrix(rng, dim[v] - len(rows), n).rows)
                            if len(rows) < dim[v] else rows)
            if rank_via_minors(m) == dim[v] or rng.random() < 0.1:
                break
        witness[v] = m
    mus = {v: ValuatedMatroid(n, 1, {(1,): 0}) if n == 9 else pluecker_valuations(
        witness[v] if rank_via_minors(witness[v]) == dim[v] else full_rank(rng, dim[v], n))
        for v in names}
    kinds = set()
    r = rng.random()
    if r < 0.15 and n < 9:
        v = rng.choice(names)
        mus[v] = pluecker_valuations(full_rank(rng, dim[v], n))
        kinds.add("swapped tuple")
    elif r < 0.3 and n < 9:
        v = rng.choice(names)
        witness[v] = deficient(rng, dim[v], n)
    elif r < 0.4 and arrows:
        k = rng.randrange(len(arrows))
        src, dst, _ = arrows[k]
        arrows[k] = (src, dst, None)
        kinds.add("tropical arrow")
    rep = QuiverRepresentation(n, names, [
        RepArrow(s, d, field=a) if a is not None else
        RepArrow(s, d, trop=TropMatrix.identity(n))
        for s, d, a in arrows], dim)
    touched = {x for s, d, _ in arrows for x in (s, d)}
    if any(s == d for s, d, _ in arrows):
        kinds.add("loop")
    if len(arrows) > 1:
        kinds.add("several arrows")
    if set(names) - touched:
        kinds.add("isolated vertex")
    if any(n < 9 and rank_via_minors(witness[v]) < dim[v] for v in names):
        kinds.add("rank-deficient witness")
    return rep, mus, witness, kinds


def test_witness_check_matches_reference():
    rng = random.Random(20241019)
    seen = set()
    for _ in range(600):
        rep, mus, witness, kinds = random_witness_instance(rng)
        got = outcome(lib_trop_qgr_witness_check, rep, mus, witness)
        subrep = outcome(lib_is_subrepresentation, rep, witness)
        late = outcome(rank_check, rep, witness)
        accepted = outcome(is_subrepresentation, rep, witness) == ("ok", (True, None))
        if accepted and late[0] == "raise":
            assert outcome(_validate_tuple, rep, mus) == ("ok", None)
            assert got == subrep == late, (rep, witness)
            kinds.add("raised after the arrows")
        else:
            assert got == outcome(trop_qgr_witness_check, rep, mus, witness), (rep, witness)
            assert subrep == outcome(is_subrepresentation, rep, witness), (rep, witness)
        seen |= kinds
        if got[0] == "raise":
            seen.add(got[2].split(" ")[0] if "cap" not in got[2] else "cap")
        else:
            ok, cert = got[1]
            seen.add(cert[0] if cert else "accepted")
            if cert and cert[0] == "subrepresentation" and cert[1] > 0:
                seen.add("later arrow rejects")
            if ok and kinds & {"loop", "several arrows", "isolated vertex"}:
                seen |= {"accepted with " + k for k in kinds}
    expected = {"accepted", "subrepresentation", "later arrow rejects", "valuation-mismatch",
                "U", "candidate", "arrow", "cap", "raised after the arrows", "loop",
                "several arrows", "isolated vertex", "rank-deficient witness", "tropical arrow",
                "swapped tuple", "accepted with loop", "accepted with several arrows",
                "accepted with isolated vertex"}
    assert expected <= seen, expected - seen


def test_candidate_shape_errors_match_reference():
    rng = random.Random(20241020)
    a = rational_matrix(rng, 3, 3)
    rep = QuiverRepresentation(3, ["u", "w"], [RepArrow("u", "w", field=a)], {"u": 1, "w": 2})
    u, w = full_rank(rng, 1, 3), full_rank(rng, 2, 3)
    mus = {"u": pluecker_valuations(u), "w": pluecker_valuations(w)}
    for witness in ({"u": u}, {"u": u, "w": u}, {"u": u, "w": full_rank(rng, 2, 2)},
                    {"u": u, "w": w, "z": w}):
        assert (outcome(lib_is_subrepresentation, rep, witness)
                == outcome(is_subrepresentation, rep, witness))
        got = outcome(lib_trop_qgr_witness_check, rep, mus, witness)
        assert got == outcome(trop_qgr_witness_check, rep, mus, witness)
        assert got[:2] == ("raise", UsageError)


def test_each_minor_is_expanded_once_per_witness_check(monkeypatch):
    """Structural, not timed: with arrows u -> w and x -> w, no minor of
    any vertex's rows (keyed by those rows' values and its columns) is
    expanded twice in one accepted witness check, though w is the target
    of two containments and has its valuations taken.  Integer exponents
    and coefficients keep every scale 1, so equal rows have equal keys
    however often they are scaled.  The maximal minors of w asked for are
    exactly those of the rank check, up to w's first nonzero one, on the
    pivot columns K, those on (K + {j}) - {k} that the stacked minors on
    K + {j} expand along the image row, and those whose leading terms
    cancel, which the valuations expand exactly."""
    rng = random.Random(20241021)

    def positive():
        return PuiseuxElement({rng.randint(0, 3): rng.randint(1, 4)})

    n = 5
    a, b = ([[positive() for _ in range(n)] for _ in range(n)] for _ in range(2))
    a, b = FieldMatrix(a), FieldMatrix(b)
    u, x = (FieldMatrix([[positive() for _ in range(n)]]) for _ in range(2))
    w = FieldMatrix([a.matvec(u.rows[0]), b.matvec(x.rows[0]), [positive() for _ in range(n)]])
    assert rank_via_minors(w) == 3
    rep = QuiverRepresentation(n, ["u", "x", "w"], [RepArrow("u", "w", field=a),
                                                    RepArrow("x", "w", field=b)],
                               {"u": 1, "x": 1, "w": 3})
    witness = {"u": u, "x": x, "w": w}
    mus = {v: pluecker_valuations(m) for v, m in witness.items()}
    triples = list(combinations(range(n), 3))
    pivot = next(cols for cols in triples
                 if det(FieldMatrix([[r[j] for j in cols] for r in w.rows])) != ZERO)
    asked = set(triples[:triples.index(pivot) + 1])
    asked |= {tuple(sorted((set(pivot) | {j}) - {k})) for j in range(n) if j not in pivot
              for k in pivot + (j,)}
    cancelling = {cols for cols in triples if leading_terms_cancel(w, cols)}
    keys = []
    expand = puiseux._expand

    def counted(rows, memo, cols):
        bottom = rows[len(rows) - len(cols):]
        keys.append((tuple(tuple(tuple(sorted(x.items())) for x in r) for r in bottom), cols))
        return expand(rows, memo, cols)

    monkeypatch.setattr(puiseux, "_expand", counted)
    assert lib_trop_qgr_witness_check(rep, mus, witness) == (True, None)
    monkeypatch.setattr(puiseux, "_expand", expand)
    counts = Counter(keys)
    maximal = {k[1] for k in counts if len(k[0]) == 3 and len(k[1]) == 3}
    assert maximal == asked | cancelling
    assert max(counts.values()) == 1, [k[1] for k, c in counts.items() if c > 1]


def test_rank_deficient_vertex_without_arrows_is_rejected():
    """dims (1, 2, 2), u -> w, and x = [[1, 0, 0], [2, 0, 0]] at the vertex
    that no arrow touches: UsageError, as at an arrow's end, where the
    reference accepted; an arrow that rejects still comes first."""
    rep = QuiverRepresentation(3, ["u", "w", "x"],
                               [RepArrow("u", "w", field=FieldMatrix.identity(3))],
                               {"u": 1, "w": 2, "x": 2})
    w, x = FieldMatrix([[1, 0, 0], [0, 1, 0]]), FieldMatrix([[1, 0, 0], [2, 0, 0]])
    mus = {"u": pluecker_valuations(FieldMatrix([[1, 0, 0]])), "w": pluecker_valuations(w),
           "x": pluecker_valuations(w)}
    inside = {"u": FieldMatrix([[1, 0, 0]]), "w": w, "x": x}
    raised = ("raise", UsageError, "candidate at 'x' must have full row rank")
    assert outcome(is_subrepresentation, rep, inside) == ("ok", (True, None))
    assert outcome(lib_is_subrepresentation, rep, inside) == raised
    assert outcome(lib_trop_qgr_witness_check, rep, mus, inside) == raised
    outside = dict(inside, u=FieldMatrix([[0, 0, 1]]))
    assert outcome(lib_is_subrepresentation, rep, outside) == ("ok", (False, 0))
    assert (outcome(lib_trop_qgr_witness_check, rep, mus, outside)
            == ("ok", (False, ("subrepresentation", 0))))
