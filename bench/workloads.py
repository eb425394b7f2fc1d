"""The three benchmark workloads.

``WORKLOADS[name](rng, workdir)`` returns the workload's cycle: a list of
:class:`Slot` objects run in a fixed order, over and over, by one client
that waits for each answer (a closed loop).  Each slot carries its op and
the check of its answer; the expected answer comes from how the input was
built (see ``generators``), never from running the library first.

Ops look library functions up through their modules at call time, so the
tracer's rebinding (``tracing.py``) sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

from tropquiver import cli, puiseux, quiver

import generators as gen


class Slot:
    """One op of a workload cycle.

    ``run()`` performs the op and returns its raw answer; ``check(answer)``
    returns (ok, record) where record is the JSON-able verdict and
    certificate that enters the workload digest; ``stats(answer)``, if
    given, returns per-layer counts read off the answer.
    """

    __slots__ = ("label", "run", "check", "stats")

    def __init__(self, label, run, check, stats=None):
        self.label, self.run, self.check, self.stats = label, run, check, stats


def plain(obj):
    """A JSON-able rendering of library answers (tuples, TropValues, ...)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return repr(obj)


# --- chain_accept -----------------------------------------------------------

# (n, ranks) per shape, and the cycle; every slot gets its own instance,
# so a run averages over several inputs of each shape.  Shares: n6 4/10,
# n7 (3,5) 3/10, n7 (2,4,5) 1/10, n8 2/10.  Sorted by latency the shapes
# cover 0-40%, 40-70%, 70-80% and 80-100% of ops, so p50 sits inside the
# n7 (3,5) cluster and p90 inside the n8 cluster, never on a boundary
# between two shapes.
CHAIN_SHAPES = {"n6": (6, (2, 4)), "n7": (7, (3, 5)), "n7f": (7, (2, 4, 5)), "n8": (8, (3, 5))}
CHAIN_CYCLE = ["n6", "n7", "n8", "n6", "n7", "n6", "n7f", "n7", "n6", "n8"]


def _chain_slot(label, n, ranks, mus):
    rep = quiver.identity_chain_representation(n, list(ranks))
    tup = {v: m for v, m in zip(rep.vertices, mus)}

    def run():
        return (
            quiver.qdr_membership(rep, tup),
            quiver.qdr_membership_via_containment(rep, tup),
            quiver.flag_mode_check(mus),
        )

    def check(answer):
        return all(a == (True, None) for a in answer), plain(answer)

    return Slot(label, run, check)


def build_chain_accept(rng, workdir):
    slots = []
    for label in CHAIN_CYCLE:
        n, ranks = CHAIN_SHAPES[label]
        slots.append(_chain_slot(label, n, ranks, gen.nested_matroids(rng, n, ranks)))
    return slots


# --- witness_realize --------------------------------------------------------

# (label, n, r, s, perturbation) per slot, each slot with its own
# instance.  One op in four is perturbed: "subrep" zeroes a column of V
# that A·U needs (early exit at is_subrepresentation), "loop" swaps in a
# genuine subrepresentation whose source matrix has a loop (rejected at
# valuation-mismatch).  The perturbed ops and w5 are the fast 62% of ops,
# w6 the slow 38%: p50 and p90 each sit inside one cluster, and each
# cluster averages over 12 or more instances.
WITNESS_CYCLE = [
    ("w5", 5, 2, 3, None),
    ("w6", 6, 2, 4, None),
    ("w5", 5, 2, 3, None),
    ("w6-subrep", 6, 2, 4, "subrep"),
    ("w6", 6, 2, 4, None),
    ("w5", 5, 2, 3, None),
    ("w6", 6, 2, 4, None),
    ("w5-loop", 5, 2, 3, "loop"),
] * 4
EXPECTED_WITNESS = {None: (True, None), "subrep": (False, ("subrepresentation", 0)),
                    "loop": (False, ("valuation-mismatch", "u"))}


def _witness_slot(label, rep, u, v, witness, expected):
    def run():
        mus = {"u": puiseux.pluecker_valuations(u), "w": puiseux.pluecker_valuations(v)}
        return quiver.trop_qgr_witness_check(rep, mus, witness)

    def check(answer):
        return answer == expected, plain(answer)

    return Slot(label, run, check)


def build_witness_realize(rng, workdir):
    slots = []
    for label, n, r, s, kind in WITNESS_CYCLE:
        witness = None
        while witness is None:
            a, u, v = gen.witness_instance(rng, n, r, s)
            if kind is None:
                witness = {"u": u, "w": v}
            elif kind == "subrep":
                broken = gen.broken_target(rng, a, u, v)
                if broken is not None:
                    witness = {"u": u, "w": broken}
            else:
                looped = gen.looped_source(rng, a, u, s)
                if looped is not None:
                    witness = {"u": looped[0], "w": looped[1]}
        rep = quiver.QuiverRepresentation(
            n, ["u", "w"], [quiver.RepArrow("u", "w", field=a)], {"u": r, "w": s}
        )
        slots.append(_witness_slot(label, rep, u, v, witness, EXPECTED_WITNESS[kind]))
    return slots


# --- cli_mixed --------------------------------------------------------------

def _violates(mu, nu, i_set, j_set, i):
    """Independent exchange-axiom check on raw tables (absent = infinite):
    does (I, J, i) violate mu(I) + nu(J) >= min_j mu(I-i+j) + nu(J-j+i)?"""
    i_set, j_set = tuple(sorted(i_set)), tuple(sorted(j_set))
    if i not in i_set or i in j_set or i_set not in mu or j_set not in nu:
        return False
    lhs = mu[i_set] + nu[j_set]
    for j in j_set:
        if j in i_set:
            continue
        left = tuple(sorted(set(i_set) - {i} | {j}))
        right = tuple(sorted(set(j_set) - {j} | {i}))
        if left in mu and right in nu and mu[left] + nu[right] <= lhs:
            return False
    return True


def _triple_check(mu, nu):
    def check(cert):
        return (isinstance(cert, list) and len(cert) == 3
                and _violates(mu, nu, cert[0], cert[1], cert[2]))
    return check


def _min_once(circuit, point):
    """Is the minimum of circuit_i + point_i finite and attained once?"""
    terms = [Fraction(c) + Fraction(x) for c, x in zip(circuit, point)
             if c != "inf" and x != "inf"]
    return bool(terms) and terms.count(min(terms)) == 1


class _Fixtures:
    """Writes JSON fixtures under stable names in one directory."""

    def __init__(self, workdir):
        self.dir = os.path.join(workdir, "fixtures")
        os.makedirs(self.dir, exist_ok=True)

    def __call__(self, name, data):
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path


def _cli_slot(label, argv, expected, cert_check=None):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, buf.getvalue()

    def check(answer):
        code, out = answer
        try:
            verdict = json.loads(out)
        except ValueError:
            return False, [code, "unparsable output"]
        verdict.pop("elapsed_ms", None)
        verdict.pop("inputs", None)
        ok = code == expected
        if code in (0, 1):
            # README: a certificate is present exactly when the predicate fails
            ok = ok and "certificate" in verdict and (verdict["certificate"] is not None) == (code == 1)
        if ok and cert_check is not None:
            ok = cert_check(verdict["certificate"])
        return ok, [code, verdict]

    def stats(answer):
        code, out = answer
        return {"cli.output_bytes": len(out.encode()), "cli.exit_%s" % code: 1}

    return Slot(label, run, check, stats)


def build_cli_mixed(rng, workdir):
    fx = _Fixtures(workdir)
    n = 5  # small fixtures: p50 measures the fixed per-command cost
    u_lo, u_hi = gen.nested_realizations(rng, n, (2, 3))
    m_lo, m_hi = (puiseux.pluecker_valuations(u) for u in (u_lo, u_hi))
    lo, hi = gen.table(m_lo), gen.table(m_hi)
    bad_hi = gen.lowered(hi)
    bad_lo = gen.lowered(lo, above=hi)  # breaks lo's own axiom and the quotient
    f_lo, f_hi = fx("lo", gen.enc_matroid(n, 2, lo)), fx("hi", gen.enc_matroid(n, 3, hi))
    f_bad_hi = fx("hi_lowered", gen.enc_matroid(n, 3, bad_hi))
    f_bad_lo = fx("lo_lowered", gen.enc_matroid(n, 2, bad_lo))

    # a point of the tropical linear space: the valuation of a row of u_hi,
    # and the same point with one coordinate lowered past every circuit term
    point = [None if e.is_zero else min(x for x, _ in e.terms()) for e in u_hi.rows[0]]
    far = list(point)
    k = next(k for k in range(n) if any(k + 1 not in b for b in hi))  # not a coloop
    far[k] -= gen.DROP
    f_point, f_far = fx("point", [gen.enc_value(x) for x in point]), fx("point_far", [gen.enc_value(x) for x in far])

    wm, wm_targets, wm_shifts = gen.monomial_map(rng, n, zero_rows=True)
    f_wm_map, f_wm = fx("wm_map", gen.enc_map(wm_targets, wm_shifts)), fx("wm_matrix", gen.enc_field(wm))
    _, bij_targets, bij_shifts = gen.monomial_map(rng, n, zero_rows=False)
    ind = gen.induced_by_bijection(hi, 3, n, bij_targets, bij_shifts)
    bad_ind = gen.lowered(ind)
    f_bij = fx("bij_map", gen.enc_map(bij_targets, bij_shifts))
    f_ind, f_bad_ind = fx("induced", gen.enc_matroid(n, 3, ind)), fx("induced_lowered", gen.enc_matroid(n, 3, bad_ind))

    chain = gen.enc_quiver(n, ["v1", "v2"], [("v1", "v2", puiseux.FieldMatrix.identity(n))], {"v1": 2, "v2": 3})
    f_chain = fx("chain5", chain)
    f_tuple = fx("chain5_tuple", {"v1": gen.enc_matroid(n, 2, lo), "v2": gen.enc_matroid(n, 3, hi)})
    f_bad_tuple = fx("chain5_tuple_lowered", {"v1": gen.enc_matroid(n, 2, bad_lo), "v2": gen.enc_matroid(n, 3, hi)})
    f_identity = fx("identity5", gen.enc_trop_identity(n))
    f_flag, f_bad_flag = fx("flag", [gen.enc_matroid(n, 2, lo), gen.enc_matroid(n, 3, hi)]), fx(
        "flag_lowered", [gen.enc_matroid(n, 2, bad_lo), gen.enc_matroid(n, 3, hi)])

    broken = None
    while broken is None:
        a, u, v = gen.witness_instance(rng, 5, 2, 3)
        broken = gen.broken_target(rng, a, u, v)
    f_wq = fx("witness_quiver", gen.enc_quiver(5, ["u", "w"], [("u", "w", a)], {"u": 2, "w": 3}))
    f_wmus = fx("witness_tuple", {"u": gen.enc_matroid(5, 2, gen.table(puiseux.pluecker_valuations(u))),
                                  "w": gen.enc_matroid(5, 3, gen.table(puiseux.pluecker_valuations(v)))})
    f_wit, f_bad_wit = fx("witness", {"u": gen.enc_field(u), "w": gen.enc_field(v)}), fx(
        "witness_broken", {"u": gen.enc_field(u), "w": gen.enc_field(broken)})

    big = gen.enc_quiver(7, ["v1", "v2"], [("v1", "v2", puiseux.FieldMatrix.identity(7))], {"v1": 3, "v2": 5})
    f_big = fx("chain7", big)

    def circuit_misses(pt):
        return lambda cert: _min_once(cert, pt)

    def image_misses(cert):  # identity arrow: the image is the cocircuit itself
        return isinstance(cert, list) and len(cert) == 2 and _min_once(cert[1], cert[0])

    def tagged(tag, inner):
        return lambda cert: isinstance(cert, list) and cert[0] == tag and inner(cert[-1])

    rels = _cli_slot("relations", ["relations", f_big], 0)
    # 27 ops; the four `relations` ops (the slowest, 4/27 = 15%) hold p90,
    # and an odd cycle keeps p50 off a boundary between two commands.
    return [
        _cli_slot("check-matroid+", ["check-matroid", f_hi], 0),
        _cli_slot("check-matroid-", ["check-matroid", f_bad_hi], 1, _triple_check(bad_hi, bad_hi)),
        _cli_slot("circuits", ["circuits", f_hi], 0),
        _cli_slot("cocircuits", ["cocircuits", f_hi], 0),
        _cli_slot("tls-member+", ["tls-member", f_hi, f_point], 0),
        _cli_slot("tls-member-", ["tls-member", f_hi, f_far], 1, circuit_misses([gen.enc_value(x) for x in far])),
        rels,
        _cli_slot("quotient+", ["quotient", f_lo, f_hi], 0),
        _cli_slot("quotient-", ["quotient", f_bad_lo, f_hi], 1, _triple_check(bad_lo, hi)),
        _cli_slot("induce", ["induce", f_hi, f_wm_map], 0),
        _cli_slot("morphism-check+", ["morphism-check", f_bij, f_ind, f_hi], 0),
        _cli_slot("morphism-check-", ["morphism-check", f_bij, f_bad_ind, f_hi], 1, _triple_check(ind, bad_ind)),
        _cli_slot("monomial-decompose", ["monomial-decompose", f_wm], 0),
        rels,
        _cli_slot("realize", ["realize", fx("realize_matrix", gen.enc_field(u_hi))], 0),
        _cli_slot("qdr-check+", ["qdr-check", f_chain, f_tuple], 0),
        _cli_slot("qdr-check-", ["qdr-check", f_chain, f_bad_tuple], 1, tagged("matroid", _triple_check(bad_lo, bad_lo))),
        _cli_slot("qdr-check-x+", ["qdr-check", "--cross-check", f_chain, f_tuple], 0),
        _cli_slot("qdr-check-x-", ["qdr-check", "--cross-check", f_chain, f_bad_tuple], 1,
                  tagged("matroid", _triple_check(bad_lo, bad_lo))),
        _cli_slot("containment-check+", ["containment-check", f_identity, f_lo, f_hi], 0),
        rels,
        _cli_slot("containment-check-", ["containment-check", f_identity, f_hi, f_lo], 1, image_misses),
        _cli_slot("qgr-witness-check+", ["qgr-witness-check", f_wq, f_wmus, f_wit], 0),
        _cli_slot("qgr-witness-check-", ["qgr-witness-check", f_wq, f_wmus, f_bad_wit], 1,
                  lambda cert: cert == ["subrepresentation", 0]),
        _cli_slot("flag-check+", ["flag-check", f_flag], 0),
        _cli_slot("flag-check-", ["flag-check", f_bad_flag], 1,
                  lambda cert: isinstance(cert, list) and cert[0] == 0 and _triple_check(bad_lo, hi)(cert[1])),
        rels,
    ]


WORKLOADS = {
    "chain_accept": build_chain_accept,
    "witness_realize": build_witness_realize,
    "cli_mixed": build_cli_mixed,
}
