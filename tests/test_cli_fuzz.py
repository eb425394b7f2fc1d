"""Fuzzing the CLI input boundary with generated JSON trees.

Whatever the files hold, ``check-matroid``, ``qdr-check``, ``relations``,
``realize``, ``containment-check`` and ``qgr-witness-check`` must print
exactly one JSON object and exit 0, 1 or 2, and exit 1 must carry a
certificate.  Most inputs start as a coherent quiver, matroid tuple, witness
and tropical matrix, so that they reach the decision procedures; then one
node of one file may be swapped for an arbitrary JSON tree.  Sizes stay
small, because every decision procedure is exponential in the ground set.
"""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropquiver.cli import main

KEYS = ["n", "r", "values", "vertices", "arrows", "dim", "src", "dst",
        "matrix_field", "matrix_trop", "c", "e", "u", "w"]
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
def instance(draw):
    """A quiver on [n] with up to two arrows (loops included), a matroid
    tuple and a witness of the right ranks, and an n x n tropical matrix."""
    n = draw(st.integers(1, 4))
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
    return quiver, mus, witness, draw(matrix(n, n, VALUES))


def mutate(draw, doc):
    """Swap one node of doc, found by a random descent, for a JSON tree."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(TREES)
    if isinstance(doc, dict):
        key = draw(st.sampled_from(sorted(doc)))
        return {**doc, key: mutate(draw, doc[key])}
    k = draw(st.integers(0, len(doc) - 1))
    return doc[:k] + [mutate(draw, doc[k])] + doc[k + 1:]


@st.composite
def commands(draw):
    quiver, mus, witness, trop = draw(instance())
    first, last = quiver["vertices"][0], quiver["vertices"][-1]
    argv, documents = draw(st.sampled_from([
        (["check-matroid"], [mus[first]]),
        (["qdr-check"], [quiver, mus]),
        (["qdr-check", "--cross-check"], [quiver, mus]),
        (["relations"], [quiver]),
        (["realize"], [witness[first]]),
        (["containment-check"], [trop, mus[first], mus[last]]),
        (["qgr-witness-check"], [quiver, mus, witness]),
    ]))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(documents) - 1))
        documents[k] = mutate(draw, documents[k])
    return argv, documents


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


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
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
