"""JSON-in, JSON-out command line front end.

Every subcommand is one entry of COMMANDS; the parser, the dispatcher and
the input digests of the verdict are all read off that table.  A call is
parsed first by a parser of the subcommand it names alone (_parse).  A
verdict is indented JSON with sorted keys, written by jsonio.dump in
batched writes: the same bytes as json.dump(verdict, indent=2,
sort_keys=True).

Exit codes: 0 = predicate true / object emitted, 1 = predicate false
(certificate emitted), 2 = input or usage error, 3 = internal error (its
traceback goes to stderr), 141 = stdout was closed before the verdict was
written (the status a shell reports for a process ended by SIGPIPE;
nothing goes to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from . import jsonio
from .errors import TropquiverError
from .matroid import circuits, cocircuits, is_valuated_matroid, quotient_check, tls_membership
from .morphism import (
    affine_induced,
    associated_map,
    decompose_weakly_monomial,
    is_affine_morphism,
)
from .puiseux import pluecker_valuations
from .quiver import (
    _kept_relations,
    containment_check,
    flag_mode_check,
    qdr_cross_check,
    qdr_membership,
    trop_qgr_witness_check,
)


@dataclass(frozen=True)
class Command:
    """A subcommand.  inputs are its file arguments in load order, as
    (argument, format) pairs, each file decoded by jsonio.<format>_from_json;
    run takes the decoded inputs, plus each flag as a keyword, and returns
    (ok, payload) or (ok, payload, extra verdict keys); flags are boolean
    options as (keyword, help) pairs."""

    inputs: tuple
    run: Callable
    flags: tuple = ()


def _monomial_decompose(a):
    b, d = decompose_weakly_monomial(a)
    return True, {
        "support": jsonio.field_matrix_to_json(b),
        "diagonal": jsonio.field_matrix_to_json(d),
        "map": jsonio.map_to_json(associated_map(a)),
    }


def _qdr_check(rep, mus, cross_check):
    if not cross_check:
        return qdr_membership(rep, mus)
    # the verdict follows the relation route, and the containment route is
    # reported where it differs
    (ok, cert), (other_ok, other) = qdr_cross_check(rep, mus)
    if ok == other_ok:
        return ok, cert
    return ok, cert, {
        "cross_check": {"result": other_ok, "certificate": jsonio.certificate_to_json(other)}
    }


def _relations(rep):
    rels = jsonio.relations_to_json(_kept_relations(rep))
    return True, {"count": len(rels), "relations": rels}


MATROID = ("matroid", "matroid")
MU, NU = ("mu", "matroid"), ("nu", "matroid")
QUIVER, TUPLE = ("quiver", "representation"), ("matroids", "matroid_tuple")

# Library functions are named inside the run callables, not stored in the
# table, so that they are looked up at call time, as are the decoders: a
# rebinding of a module attribute (as a tracer does) reaches every call.
COMMANDS = {
    "check-matroid": Command((MATROID,), lambda m: is_valuated_matroid(m)),
    "circuits": Command((MATROID,), lambda m: (
        True, {"circuits": [jsonio.vector_to_json(c) for c in circuits(m)]})),
    "cocircuits": Command((MATROID,), lambda m: (
        True, {"cocircuits": [jsonio.vector_to_json(c) for c in cocircuits(m)]})),
    "tls-member": Command((MATROID, ("point", "vector")), lambda m, x: tls_membership(m, x)),
    "quotient": Command((MU, NU), lambda mu, nu: quotient_check(mu, nu)),
    "induce": Command((MATROID, ("map", "map")), lambda m, f: (
        True, jsonio.matroid_to_json(affine_induced(m, f)))),
    "morphism-check": Command((("map", "map"), MU, NU),
                              lambda f, mu, nu: is_affine_morphism(f, mu, nu)),
    "monomial-decompose": Command((("matrix", "field_matrix"),), _monomial_decompose),
    "realize": Command((("matrix", "field_matrix"),), lambda a: (
        True, jsonio.matroid_to_json(pluecker_valuations(a)))),
    "qdr-check": Command((QUIVER, TUPLE), _qdr_check, flags=(
        ("cross_check", "also run the containment route and report it where it differs"),)),
    "containment-check": Command((("matrix", "trop_matrix"), MU, NU),
                                 lambda a, mu, nu: containment_check(a, mu, nu)),
    "qgr-witness-check": Command((QUIVER, TUPLE, ("witness", "witness")),
                                 lambda rep, mus, w: trop_qgr_witness_check(rep, mus, w)),
    "flag-check": Command((("matroids", "flag"),), lambda mus: flag_mode_check(mus)),
    "relations": Command((QUIVER,), _relations),
}


def _load(path):
    """The JSON document in the file at path, and the sha256 of the bytes
    it was decoded from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # decoded as open(path) would: same encoding, newlines and errors
        return json.load(io.TextIOWrapper(io.BytesIO(raw))), hashlib.sha256(raw).hexdigest()
    except OSError as exc:
        raise TropquiverError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # ValueError also covers UnicodeDecodeError and the int digit limit;
        # RecursionError comes from arrays nested past the recursion limit
        raise TropquiverError("malformed JSON in %s: %s" % (path, exc))


def _run_command(args):
    """(ok, payload, extra keys for the verdict), the inputs' digests
    among the extra keys."""
    cmd = COMMANDS[args.command]
    inputs, digests = [], {}
    for arg, fmt in cmd.inputs:
        path = getattr(args, arg)
        data, digests[path] = _load(path)
        inputs.append(getattr(jsonio, fmt + "_from_json")(data))
    ok, payload, *extra = cmd.run(*inputs, **{key: getattr(args, key) for key, _ in cmd.flags})
    return ok, payload, dict(*extra, inputs=digests)


def build_parser(names=COMMANDS):
    """The parser of the subcommands named, by default of all of them."""
    parser = argparse.ArgumentParser(
        prog="tropquiver",
        description="Exact decision procedures for valuated matroids on quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        cmd = COMMANDS[name]
        # an explicit help, even None, lists the subcommand in --help
        p = sub.add_parser(name, help=None)
        for arg, _ in cmd.inputs:
            p.add_argument(arg)
        for key, text in cmd.flags:
            p.add_argument("--" + key.replace("_", "-"), action="store_true", help=text)
    return parser


def _error(command, message):
    json.dump({"command": command, "error": message}, sys.stdout)
    sys.stdout.write("\n")


def _parse(argv):
    """The parsed argv.  A parser of the named subcommand alone, cheaper to
    build than all of them, parses a well-formed call.  Any other argv (no
    command name first, or arguments left over, about which
    parse_known_args prints nothing) goes to the full parser, so every
    usage error and help text is the one it prints, once."""
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[:1]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = _answer(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point its descriptor at devnull, so that
        # the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _answer(args):
    """Run the parsed call, write its verdict to stdout and return its
    exit code."""
    start = time.monotonic()
    try:
        ok, payload, *extra = _run_command(args)
        certificate = (None if ok or isinstance(payload, dict)
                       else jsonio.certificate_to_json(payload))
    except TropquiverError as exc:
        _error(args.command, str(exc))
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        traceback.print_exc()
        _error(args.command, "internal error: %s: %s" % (type(exc).__name__, exc))
        return 3
    verdict = {
        "command": args.command,
        "result": bool(ok),
        "certificate": certificate,
        "elapsed_ms": round((time.monotonic() - start) * 1000, 3),
    }
    verdict.update(*extra)
    if isinstance(payload, dict):
        verdict["result"] = payload
        verdict["result_bool"] = bool(ok)
    jsonio.dump(verdict, sys.stdout)
    sys.stdout.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
