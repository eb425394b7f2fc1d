"""JSON-in, JSON-out command line front end.

Exit codes: 0 = predicate true / object emitted, 1 = predicate false
(certificate emitted), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import jsonio
from .errors import TropquiverError
from .matroid import (
    ValuatedMatroid,
    circuits,
    cocircuits,
    is_valuated_matroid,
    quotient_check,
    tls_membership,
)
from .morphism import (
    affine_induced,
    associated_map,
    decompose_weakly_monomial,
    is_affine_morphism,
)
from .puiseux import FieldMatrix, PuiseuxElement, pluecker_valuations
from .quiver import (
    _containment_failure,
    _matroid_failure,
    _relation_failure,
    all_relations,
    containment_check,
    flag_mode_check,
    qdr_membership,
    trop_qgr_witness_check,
)
from .trop import TropMatrix, TropPolynomial, TropValue, TropVector


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return jsonio.rational_to_json(obj)
    if isinstance(obj, TropValue):
        return jsonio.value_to_json(obj)
    if isinstance(obj, TropVector):
        return jsonio.vector_to_json(obj)
    if isinstance(obj, TropMatrix):
        return jsonio.trop_matrix_to_json(obj)
    if isinstance(obj, ValuatedMatroid):
        return jsonio.matroid_to_json(obj)
    if isinstance(obj, PuiseuxElement):
        return jsonio.puiseux_to_json(obj)
    if isinstance(obj, FieldMatrix):
        return jsonio.field_matrix_to_json(obj)
    if isinstance(obj, TropPolynomial):
        return [[_jsonable(c), _jsonable(m)] for c, m in obj.terms]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    raise TypeError("cannot serialize %r" % (obj,))


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise TropquiverError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # ValueError also covers UnicodeDecodeError and the int digit limit;
        # RecursionError comes from arrays nested past the recursion limit
        raise TropquiverError("malformed JSON in %s: %s" % (path, exc))


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _relation_json(rel):
    return {
        "kind": rel["kind"],
        "where": rel["where"],
        "I": list(rel["I"]),
        "J": list(rel["J"]),
        "classical": None
        if rel["classical"] is None
        else [
            {"monomial": _jsonable(m), "coeff": _jsonable(c)}
            for m, c in rel["classical"]
        ],
        "tropical": [
            {"monomial": _jsonable(m), "coeff": _jsonable(c)}
            for c, m in rel["tropical"].terms
        ],
    }


def _run_command(args):
    """(ok, payload), or (ok, payload, extra keys for the verdict)."""
    cmd = args.command
    if cmd == "check-matroid":
        return is_valuated_matroid(jsonio.matroid_from_json(_load(args.matroid)))
    if cmd == "circuits":
        m = jsonio.matroid_from_json(_load(args.matroid))
        return True, {"circuits": [jsonio.vector_to_json(c) for c in circuits(m)]}
    if cmd == "cocircuits":
        m = jsonio.matroid_from_json(_load(args.matroid))
        return True, {"cocircuits": [jsonio.vector_to_json(c) for c in cocircuits(m)]}
    if cmd == "tls-member":
        m = jsonio.matroid_from_json(_load(args.matroid))
        x = jsonio.vector_from_json(_load(args.point))
        return tls_membership(m, x)
    if cmd == "quotient":
        mu = jsonio.matroid_from_json(_load(args.mu))
        nu = jsonio.matroid_from_json(_load(args.nu))
        return quotient_check(mu, nu)
    if cmd == "induce":
        m = jsonio.matroid_from_json(_load(args.matroid))
        f = jsonio.map_from_json(_load(args.map))
        return True, jsonio.matroid_to_json(affine_induced(m, f))
    if cmd == "morphism-check":
        f = jsonio.map_from_json(_load(args.map))
        mu = jsonio.matroid_from_json(_load(args.mu))
        nu = jsonio.matroid_from_json(_load(args.nu))
        return is_affine_morphism(f, mu, nu)
    if cmd == "monomial-decompose":
        a = jsonio.field_matrix_from_json(_load(args.matrix))
        b, d = decompose_weakly_monomial(a)
        return True, {
            "support": jsonio.field_matrix_to_json(b),
            "diagonal": jsonio.field_matrix_to_json(d),
            "map": jsonio.map_to_json(associated_map(a)),
        }
    if cmd == "realize":
        a = jsonio.field_matrix_from_json(_load(args.matrix))
        return True, jsonio.matroid_to_json(pluecker_valuations(a))
    if cmd == "qdr-check":
        rep = jsonio.representation_from_json(_load(args.quiver))
        mus = jsonio.matroid_tuple_from_json(_load(args.matroids))
        if not args.cross_check:
            return qdr_membership(rep, mus)
        # one vertex check for both routes; the verdict follows the relation
        # route, and the containment route is reported where it differs
        failed = _matroid_failure(rep, mus)
        cert = failed or _relation_failure(rep, mus)
        other = failed or _containment_failure(rep, mus)
        if (cert is None) == (other is None):
            return cert is None, cert
        return cert is None, cert, {
            "cross_check": {"result": other is None, "certificate": _jsonable(other)}
        }
    if cmd == "containment-check":
        a = jsonio.trop_matrix_from_json(_load(args.matrix))
        mu = jsonio.matroid_from_json(_load(args.mu))
        nu = jsonio.matroid_from_json(_load(args.nu))
        return containment_check(a, mu, nu)
    if cmd == "qgr-witness-check":
        rep = jsonio.representation_from_json(_load(args.quiver))
        mus = jsonio.matroid_tuple_from_json(_load(args.matroids))
        witness = jsonio.witness_from_json(_load(args.witness))
        return trop_qgr_witness_check(rep, mus, witness)
    if cmd == "flag-check":
        data = _load(args.matroids)
        if not isinstance(data, list):
            raise TropquiverError("flag-check expects an array of matroids")
        return flag_mode_check([jsonio.matroid_from_json(m) for m in data])
    if cmd == "relations":
        rep = jsonio.representation_from_json(_load(args.quiver))
        rels = all_relations(rep)
        return True, {"count": len(rels), "relations": [_relation_json(r) for r in rels]}
    raise TropquiverError("unknown command %r" % cmd)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropquiver",
        description="Exact decision procedures for valuated matroids on quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *files, **kwargs):
        p = sub.add_parser(name, help=kwargs.pop("help", None))
        for f in files:
            p.add_argument(f)
        return p

    add("check-matroid", "matroid")
    add("circuits", "matroid")
    add("cocircuits", "matroid")
    add("tls-member", "matroid", "point")
    add("quotient", "mu", "nu")
    add("induce", "matroid", "map")
    add("morphism-check", "map", "mu", "nu")
    add("monomial-decompose", "matrix")
    add("realize", "matrix")
    p = add("qdr-check", "quiver", "matroids")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the containment route and report it where it differs",
    )
    add("containment-check", "matrix", "mu", "nu")
    add("qgr-witness-check", "quiver", "matroids", "witness")
    add("flag-check", "matroids")
    add("relations", "quiver")
    return parser


def _input_paths(args):
    names = (
        "matroid", "point", "mu", "nu", "map", "matrix",
        "quiver", "matroids", "witness",
    )
    return [getattr(args, n) for n in names if getattr(args, n, None)]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        ok, payload, *extra = _run_command(args)
        certificate = None if ok or isinstance(payload, dict) else _jsonable(payload)
    except TropquiverError as exc:
        json.dump({"command": args.command, "error": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return 2
    verdict = {
        "command": args.command,
        "result": ok if isinstance(payload, dict) and ok else bool(ok),
        "certificate": certificate,
        "elapsed_ms": round((time.monotonic() - start) * 1000, 3),
        "inputs": {p: _digest(p) for p in _input_paths(args)},
    }
    verdict.update(*extra)
    if isinstance(payload, dict):
        verdict["result"] = payload
        verdict["result_bool"] = bool(ok)
    json.dump(verdict, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
