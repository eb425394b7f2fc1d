"""Fuzzing the CLI input boundary with generated JSON trees.

Whatever the files hold, every subcommand must print exactly one JSON
object and exit 0, 1 or 2, and exit 1 must carry a certificate.  Whatever
the argv, cli._parse must answer as the full argparse parser does.  Most
inputs start as coherent documents (a quiver, a matroid tuple, a witness,
tropical and mostly weakly monomial field matrices, ground-set maps,
points, matroids of ranks r <= s and flags), so that they reach the
decision procedures; then one node of one file may be swapped for an
arbitrary JSON tree.  Sizes stay small, because every decision procedure
is exponential in the ground set.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropquiver import cli
from tropquiver.cli import main

KEYS = ["n", "r", "values", "vertices", "arrows", "dim", "src", "dst",
        "matrix_field", "matrix_trop", "c", "e", "u", "w", "f", "i", "to", "shift"]
VALUES = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "inf", 0, 2])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.sampled_from(["0", "1", "-1/2", "inf", "u", "w", "1/0", "1e3", "1.5", "", "x"])
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
VERTICES = ["u", "w"]


def matroid(n, r):
    subsets = [list(b) for b in combinations(range(1, n + 1), r)]
    pairs = st.lists(st.sampled_from(range(len(subsets))), min_size=1, unique=True)
    return st.tuples(pairs, st.lists(VALUES, min_size=len(subsets), max_size=len(subsets))).map(
        lambda t: {"n": n, "r": r, "values": [[subsets[k], t[1][k]] for k in t[0]]}
    )


def matrix(rows, cols, entry):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


FIELD_ENTRY = st.sampled_from(["0", "1", "-2", "1/2"]) | st.lists(
    st.fixed_dictionaries({"c": st.sampled_from(["1", "-1", "2"]),
                           "e": st.sampled_from(["0", "1", "1/2"])}), max_size=2)


@st.composite
def instance(draw, n):
    """A quiver on [n] with up to two arrows (loops included), and a matroid
    tuple and a witness of the right ranks."""
    vertices = draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=2, unique=True))
    dim = {v: draw(st.integers(1, n)) for v in vertices}
    arrows = []
    for _ in range(draw(st.integers(0, 2))):
        arrow = {"src": draw(st.sampled_from(vertices)), "dst": draw(st.sampled_from(vertices))}
        if draw(st.booleans()):
            arrow["matrix_field"] = draw(matrix(n, n, FIELD_ENTRY))
        else:
            arrow["matrix_trop"] = draw(matrix(n, n, VALUES))
        arrows.append(arrow)
    quiver = {"n": n, "vertices": vertices, "arrows": arrows, "dim": dim}
    mus = {v: draw(matroid(n, dim[v])) for v in vertices}
    witness = {v: draw(matrix(dim[v], n, FIELD_ENTRY)) for v in vertices}
    return quiver, mus, witness


def mutate(draw, doc):
    """Swap one node of doc, found by a random descent, for a JSON tree."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(TREES)
    if isinstance(doc, dict):
        key = draw(st.sampled_from(sorted(doc)))
        return {**doc, key: mutate(draw, doc[key])}
    k = draw(st.integers(0, len(doc) - 1))
    return doc[:k] + [mutate(draw, doc[k])] + doc[k + 1:]


def weakly_monomial(n):
    """An n x n field matrix with at most one nonzero entry per row (column
    0 stands for a zero row)."""
    row = st.tuples(st.integers(0, n), FIELD_ENTRY).map(
        lambda t: [t[1] if j == t[0] else "0" for j in range(1, n + 1)])
    return st.lists(row, min_size=n, max_size=n)


def ground_map(n):
    entry = st.sampled_from(["o"] + list(range(1, n + 1))).flatmap(
        lambda to: st.tuples(st.just(to), st.just("inf") if to == "o" else VALUES))
    return st.lists(entry, min_size=n, max_size=n).map(lambda t: {
        "n": n, "f": [{"i": i, "to": to, "shift": shift} for i, (to, shift) in enumerate(t, 1)]})


def ranks(n, size):
    """size ranks in [1..n], nondecreasing."""
    return st.lists(st.integers(1, n), min_size=size, max_size=size).map(sorted)


def any_matroid(n):
    return st.integers(1, n).flatmap(lambda r: matroid(n, r))


# subcommand (and flags) -> the coherent documents it reads on [n]
DOCUMENTS = {
    ("check-matroid",): lambda draw, n: [draw(any_matroid(n))],
    ("circuits",): lambda draw, n: [draw(any_matroid(n))],
    ("cocircuits",): lambda draw, n: [draw(any_matroid(n))],
    ("tls-member",): lambda draw, n: [draw(any_matroid(n)),
                                      draw(st.lists(VALUES, min_size=n, max_size=n))],
    ("quotient",): lambda draw, n: [draw(matroid(n, r)) for r in draw(ranks(n, 2))],
    ("induce",): lambda draw, n: [draw(any_matroid(n)), draw(ground_map(n))],
    ("morphism-check",): lambda draw, n: [draw(ground_map(n)), draw(any_matroid(n)),
                                          draw(any_matroid(n))],
    ("monomial-decompose",): lambda draw, n: [draw(
        weakly_monomial(n) if draw(st.integers(0, 3)) else matrix(n, n, FIELD_ENTRY))],
    ("realize",): lambda draw, n: [draw(matrix(draw(st.integers(1, n)), n, FIELD_ENTRY))],
    ("qdr-check",): lambda draw, n: list(draw(instance(n))[:2]),
    ("qdr-check", "--cross-check"): lambda draw, n: list(draw(instance(n))[:2]),
    ("containment-check",): lambda draw, n: [draw(matrix(n, n, VALUES)), draw(any_matroid(n)),
                                             draw(any_matroid(n))],
    ("qgr-witness-check",): lambda draw, n: list(draw(instance(n))),
    ("flag-check",): lambda draw, n: [[
        draw(matroid(n, r)) for r in sorted(set(draw(ranks(n, draw(st.integers(2, 3))))))]],
    ("relations",): lambda draw, n: [draw(instance(n))[0]],
}


@st.composite
def commands(draw):
    argv = draw(st.sampled_from(sorted(DOCUMENTS)))
    documents = DOCUMENTS[argv](draw, draw(st.integers(1, 4)))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(documents) - 1))
        documents[k] = mutate(draw, documents[k])
    return list(argv), documents


def test_every_subcommand_is_fuzzed():
    assert {argv[0] for argv in DOCUMENTS} == set(cli.COMMANDS)


def run_cli(argv, documents):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(documents):
            path = os.path.join(tmp, "%d.json" % k)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            paths.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + paths)
    return code, out.getvalue()


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_cli_boundary(command):
    argv, documents = command
    code, out = run_cli(argv, documents)
    assert code in (0, 1, 2)
    verdict = json.loads(out)
    assert isinstance(verdict, dict)
    if code == 1:
        assert verdict["certificate"] is not None
    if code == 2:
        assert set(verdict) == {"command", "error"}


# argv tokens: names, flags spelled in full and abbreviated, help, tokens
# that argparse reads as options or as "end of options", and paths
FLAGS = sorted({"--" + key.replace("_", "-") for cmd in cli.COMMANDS.values()
                for key, _ in cmd.flags})
PATHS = st.sampled_from(["a.json", "b.json", "dir/c.json", "d e.json", ""])
TOKENS = st.sampled_from(sorted(cli.COMMANDS) + FLAGS + [
    "--cross", "-h", "--help", "-", "--", "-5", "--cross-check=1", "", "a.json", "d e.json"])


@st.composite
def argvs(draw):
    """Tokens alone, or a command's name, then its inputs and some of its
    flags in any order, with up to two tokens swapped in or put in."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(TOKENS, max_size=5))
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    cmd = cli.COMMANDS[name]
    rest = draw(st.lists(PATHS, min_size=len(cmd.inputs), max_size=len(cmd.inputs)))
    if cmd.flags:
        rest += draw(st.lists(st.sampled_from(["--" + key.replace("_", "-")
                                               for key, _ in cmd.flags]), max_size=2))
    rest = draw(st.permutations(rest))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rest)))
        if k < len(rest) and draw(st.booleans()):
            rest[k] = draw(TOKENS)
        else:
            rest.insert(k, draw(TOKENS))
    return [name] + rest


def parsed(parse, argv):
    """("namespace", its attributes) or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "namespace", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_parse_is_the_full_parsers(argv):
    assert parsed(cli._parse, argv) == parsed(lambda a: cli.build_parser().parse_args(a), argv)
