"""Command line front end: exit codes, JSON payloads, error handling."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from tropquiver import cli, jsonio, matroid
from tropquiver.cli import main

UNIFORM_32 = {
    "n": 3,
    "r": 2,
    "values": [[[1, 2], "0"], [[1, 3], "0"], [[2, 3], "0"]],
}

DISCONNECTED = {
    "n": 4,
    "r": 2,
    "values": [[[1, 2], "0"], [[3, 4], "0"]],
}

KRONECKER = {
    "n": 2,
    "vertices": ["u", "w"],
    "arrows": [
        {"src": "u", "dst": "w", "matrix_field": [["1", "0"], ["0", "1"]]},
        {
            "src": "u",
            "dst": "w",
            "matrix_field": [
                ["1", "0"],
                ["0", [{"c": "1", "e": "0"}, {"c": "1", "e": "1"}]],
            ],
        },
    ],
    "dim": {"u": 1, "w": 1},
}

POINT_00 = {"n": 2, "r": 1, "values": [[[1], "0"], [[2], "0"]]}
POINT_E1 = {"n": 2, "r": 1, "values": [[[1], "0"]]}

# n = 12, rank 6, seven bases: 1..5 are coloops and 6..12 are parallel.  49
# pairs of bases, against C(12, 5) * C(12, 7) = 627264 pairs of subsets
# for the Grassmann-Pluecker relations.  scripts/cli_golden.py runs it too.
SPARSE_12 = {
    "n": 12,
    "r": 6,
    "values": [[[1, 2, 3, 4, 5, e], str(e - 6)] for e in range(6, 13)],
}

IDENTITY_2 = [["0", "inf"], ["inf", "0"]]
IDENTITY_3 = [["0", "inf", "inf"], ["inf", "0", "inf"], ["inf", "inf", "0"]]
MAP_2 = {"n": 2, "f": [{"i": 1, "to": 1, "shift": "0"}, {"i": 2, "to": 2, "shift": "0"}]}

# Inputs that exit 2, one per input check of the library that no other
# test reaches through the CLI: (command, [(file name, document), ...], a
# fragment of the error).  scripts/cli_golden.py replays them too.
EXIT_2 = [
    ("relations", [("q_repeated_vertex", dict(KRONECKER, vertices=["u", "u", "w"]))],
     "vertices must be distinct and nonempty"),
    ("relations", [("q_no_vertex", {"n": 2, "vertices": [], "arrows": [], "dim": {}})],
     "vertices must be distinct and nonempty"),
    ("relations", [("q_short_dim", dict(KRONECKER, dim={"u": 1}))],
     "dimension vector must cover exactly the vertices"),
    ("relations", [("q_big_dim", dict(KRONECKER, dim={"u": 1, "w": 3}))],
     "dimension 3 at vertex 'w' outside [1..2]"),
    ("relations", [("q_unknown_end", dict(KRONECKER, arrows=[
        {"src": "u", "dst": "x", "matrix_trop": IDENTITY_2}]))],
     "touches an unknown vertex"),
    ("relations", [("q_no_layer", dict(KRONECKER, arrows=[{"src": "u", "dst": "w"}]))],
     "carries no matrix layer"),
    ("relations", [("q_small_matrix", dict(KRONECKER, arrows=[
        {"src": "u", "dst": "w", "matrix_trop": [["0"]]}]))],
     "arrow matrices must be 2x2"),
    ("qdr-check", [("kronecker", KRONECKER), ("tuple_n3", {"u": UNIFORM_32, "w": POINT_00})],
     "matroid at 'u' lives on [3], ambient is [2]"),
    ("qgr-witness-check", [("kronecker", KRONECKER), ("tuple_e1", {"u": POINT_E1, "w": POINT_E1}),
                           ("witness_no_w", {"u": [["1", "0"]]})],
     "candidate must be keyed by exactly the vertices"),
    ("qgr-witness-check", [("kronecker", KRONECKER), ("tuple_e1", {"u": POINT_E1, "w": POINT_E1}),
                           ("witness_1x3", {"u": [["1", "0", "0"]], "w": [["1", "0"]]})],
     "candidate at 'u' must be 1x2"),
    ("check-matroid", [("m_repeated", {"n": 3, "r": 2, "values": [[[1, 1], "0"]]})],
     "subset with repeated elements"),
    ("check-matroid", [("m_n0", {"n": 0, "r": 0, "values": [[[], "0"]]})],
     "need 0 <= r <= n and n >= 1"),
    ("check-matroid", [("m_r3_n2", {"n": 2, "r": 3, "values": []})],
     "need 0 <= r <= n and n >= 1"),
    ("quotient", [("u32", UNIFORM_32), ("point00", POINT_00)],
     "quotient requires a common ground set"),
    ("containment-check", [("identity2", IDENTITY_2), ("point00", POINT_00), ("u32", UNIFORM_32)],
     "matroids live on different ground sets"),
    ("containment-check", [("identity3", IDENTITY_3), ("point00", POINT_00), ("point00", POINT_00)],
     "matrix shape does not match the ground sets"),
    ("containment-check", [("ragged", [["0", "inf"], ["0"]]), ("point00", POINT_00),
                           ("point00", POINT_00)],
     "ragged tropical matrix"),
    ("containment-check", [("empty_row", [[]]), ("point00", POINT_00), ("point00", POINT_00)],
     "empty tropical matrix"),
    ("induce", [("u32", UNIFORM_32), ("map_n0", {"n": 0, "f": []})],
     "ground set must be nonempty"),
    ("induce", [("u32", UNIFORM_32), ("map_to4", {"n": 3, "f": [
        {"i": 1, "to": 1, "shift": "0"}, {"i": 2, "to": 4, "shift": "0"},
        {"i": 3, "to": 3, "shift": "0"}]})],
     "target 4 outside [1..3]"),
    ("induce", [("u32", UNIFORM_32), ("map2", MAP_2)],
     "map and matroid ground sets differ"),
    ("morphism-check", [("map2", MAP_2), ("u32", UNIFORM_32), ("u32", UNIFORM_32)],
     "map and matroids must share a ground set size"),
    ("monomial-decompose", [("field_2x3", [["1", "0", "0"], ["0", "1", "0"]])],
     "decomposition needs a square matrix"),
    ("realize", [("field_ragged", [["1", "0"], ["1"]])], "ragged field matrix"),
    ("realize", [("field_empty_row", [[]])], "empty field matrix"),
    ("tls-member", [("u32", UNIFORM_32), ("point_empty", [])], "a vector must be a nonempty array"),
    ("tls-member", [("u32", UNIFORM_32), ("point_number", 5)], "a vector must be a nonempty array"),
]


# Inputs whose ground set their file does not bound: a count far past the
# cap, which is never computed (at the n = 40000 and n = 100000 of the
# first four, C(n, n/2) has over 4300 digits, the int-to-str limit), and
# tables, a map and quivers on n = 10^9 that must not walk the ground set
G = 10 ** 9
LARGE_N_FILES = {
    "half40000": {"n": 40000, "vertices": ["v"], "arrows": [], "dim": {"v": 20000}},
    "half100000": {"n": 100000, "r": 50000, "values": [[list(range(1, 50001)), "0"]]},
    "r0": {"n": G, "r": 0, "values": [[[], "0"]]},
    "r1": {"n": G, "r": 1, "values": [[[1], "0"]]},
    "r0_20000": {"n": 20000, "r": 0, "values": [[[], "0"]]},
    "flag": [{"n": G, "r": 0, "values": [[[], "0"]]}, {"n": G, "r": 1, "values": [[[1], "0"]]}],
    "map": {"n": G, "f": [{"i": 1, "to": 1, "shift": "0"}]},
    "full_rank": {"n": G, "vertices": ["v"], "arrows": [], "dim": {"v": G}},
    "rank1": {"n": G, "vertices": ["v"], "arrows": [], "dim": {"v": 1}},
    "tuple": {"v": {"n": G, "r": 1, "values": [[[1], "0"]]}},
}
# (argv, exit code, error of an exit 2)
LARGE_N = [
    (["relations", "half40000"], 2,
     "relation generation walks more than 20000 (I, J) pairs; the cap is 20000"),
    (["circuits", "half100000"], 2,
     "circuit enumeration walks more than 20000 subsets; the cap is 20000"),
    (["cocircuits", "half100000"], 2,
     "cocircuit enumeration walks more than 20000 subsets; the cap is 20000"),
    (["check-matroid", "half100000"], 0, None),
    (["check-matroid", "r0"], 0, None),
    (["check-matroid", "r1"], 0, None),
    (["cocircuits", "r0"], 0, None),
    (["cocircuits", "r1"], 2,
     "cocircuit enumeration walks 1000000000 vector entries; the cap is 20000"),
    (["circuits", "r0"], 2, "circuit enumeration walks 1000000000 subsets; the cap is 20000"),
    (["circuits", "r0_20000"], 2,
     "circuit enumeration walks 400000000 vector entries; the cap is 20000"),
    (["quotient", "r0", "r1"], 0, None),
    (["flag-check", "flag"], 0, None),
    (["induce", "r1", "map"], 2, "map must assign exactly the elements 1..1000000000"),
    (["relations", "full_rank"], 0, None),
    (["relations", "rank1"], 2,
     "relation generation walks 499999999500000000 (I, J) pairs; the cap is 20000"),
    (["qdr-check", "rank1", "tuple"], 0, None),
]


# Argvs that argparse answers itself, before any file is read: usage
# errors (exit 2) and top-level help.  scripts/cli_golden.py replays them too.
USAGE_ARGVS = [
    [],
    ["no-such-command"],
    ["-h"],
    ["relations", "a", "b"],
    ["qdr-check", "--cross-chek", "a", "b"],
    ["quotient", "a"],
    ["relations"],
    ["relations", "--cross-check", "a"],
    ["--cross-check", "qdr-check", "a", "b"],
    ["check-matroid", "--bogus"],
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def write(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


class TestVerdicts:
    def test_check_matroid_true(self, write, capsys):
        code, out = run(capsys, "check-matroid", write("m.json", UNIFORM_32))
        assert code == 0
        assert out["result"] is True and out["certificate"] is None
        assert len(list(out["inputs"].values())[0]) == 64  # sha256 digest

    def test_check_matroid_false_has_certificate(self, write, capsys):
        code, out = run(capsys, "check-matroid", write("m.json", DISCONNECTED))
        assert code == 1
        assert out["result"] is False
        assert out["certificate"] == [[1, 2], [3, 4], 1]

    def test_circuits_payload(self, write, capsys):
        code, out = run(capsys, "circuits", write("m.json", UNIFORM_32))
        assert code == 0
        assert out["result"] == {"circuits": [["0", "0", "0"]]}
        assert out["result_bool"] is True

    def test_tls_member_rejection(self, write, capsys):
        m = write("m.json", UNIFORM_32)
        p = write("p.json", ["0", "1", "2"])
        code, out = run(capsys, "tls-member", m, p)
        assert code == 1 and out["certificate"] == ["0", "0", "0"]

    def test_quotient(self, write, capsys):
        mu = write("mu.json", {"n": 3, "r": 1, "values": [[[1], "0"], [[2], "0"], [[3], "0"]]})
        nu = write("nu.json", UNIFORM_32)
        assert run(capsys, "quotient", mu, nu)[0] == 0

    def test_induce_emits_pointed_matroid(self, write, capsys):
        m = write("m.json", UNIFORM_32)
        f = write("f.json", {
            "n": 3,
            "f": [
                {"i": 1, "to": 1, "shift": "3"},
                {"i": 2, "to": 3, "shift": "1"},
                {"i": 3, "to": 2, "shift": "0"},
            ],
        })
        code, out = run(capsys, "induce", m, f)
        assert code == 0
        assert out["result"]["n"] == 4 and out["result"]["r"] == 2
        assert [[1, 2], "4"] in out["result"]["values"]

    def test_realize(self, write, capsys):
        m = write("a.json", [["1", [{"c": "1", "e": "1"}], "0"], ["0", "1", [{"c": "1", "e": "1"}]]])
        code, out = run(capsys, "realize", m)
        assert code == 0
        assert out["result"]["values"] == [[[1, 2], "0"], [[1, 3], "1"], [[2, 3], "2"]]

    def test_monomial_decompose(self, write, capsys):
        m = write("a.json", [["0", [{"c": "2", "e": "3"}]], ["1", "0"]])
        code, out = run(capsys, "monomial-decompose", m)
        assert code == 0
        assert set(out["result"]) == {"support", "diagonal", "map"}

    def test_qdr_check_accept_and_reject(self, write, capsys):
        q = write("q.json", KRONECKER)
        good = write("good.json", {"u": POINT_00, "w": POINT_00})
        bad = write("bad.json", {"u": POINT_00, "w": POINT_E1})
        assert run(capsys, "qdr-check", q, good)[0] == 0
        code, out = run(capsys, "qdr-check", q, bad)
        assert code == 1 and out["certificate"][0] == "relation"

    def test_qdr_cross_check(self, write, capsys):
        q = write("q.json", KRONECKER)
        good = write("good.json", {"u": POINT_00, "w": POINT_00})
        assert run(capsys, "qdr-check", "--cross-check", q, good)[0] == 0

    def test_agreeing_cross_check_adds_nothing(self, write, capsys):
        q = write("q.json", KRONECKER)
        for mus in ({"u": POINT_00, "w": POINT_00}, {"u": POINT_00, "w": POINT_E1}):
            path = write("mus.json", mus)
            plain = run(capsys, "qdr-check", q, path)
            checked = run(capsys, "qdr-check", "--cross-check", q, path)
            for _, out in (plain, checked):
                del out["elapsed_ms"]
            assert checked == plain

    def test_qdr_cross_check_reports_a_disagreement(self, write, capsys):
        # A loop carrying the tropical identity at n = 2, and mu = (0, 0):
        # the relation route rejects, the containment route accepts.  The
        # input is valid, so the exit code follows the relation route.
        q = write("q.json", {
            "n": 2,
            "vertices": ["v"],
            "arrows": [{"src": "v", "dst": "v", "matrix_trop": [["0", "inf"], ["inf", "0"]]}],
            "dim": {"v": 1},
        })
        mus = write("mus.json", {"v": POINT_00})
        code, out = run(capsys, "qdr-check", "--cross-check", q, mus)
        assert code == 1
        assert out["certificate"] == ["relation", 0, [], [1, 2]]
        assert out["cross_check"] == {"result": True, "certificate": None}

    def test_containment_check(self, write, capsys):
        a = write("a.json", [["0", "inf"], ["inf", "0"]])
        mu = write("mu.json", POINT_00)
        nu = write("nu.json", POINT_E1)
        assert run(capsys, "containment-check", a, mu, mu)[0] == 0
        code, out = run(capsys, "containment-check", a, mu, nu)
        # certificate is (escaping cocircuit of mu, violating circuit of nu)
        assert code == 1 and out["certificate"] == [["0", "0"], ["inf", "0"]]

    def test_qgr_witness_check(self, write, capsys):
        q = write("q.json", KRONECKER)
        mus = write("mus.json", {"u": POINT_E1, "w": POINT_E1})
        wit = write("wit.json", {"u": [["1", "0"]], "w": [["1", "0"]]})
        assert run(capsys, "qgr-witness-check", q, mus, wit)[0] == 0
        mus2 = write("mus2.json", {"u": POINT_00, "w": POINT_00})
        wit2 = write("wit2.json", {"u": [["1", "1"]], "w": [["1", "1"]]})
        code, out = run(capsys, "qgr-witness-check", q, mus2, wit2)
        assert code == 1 and out["certificate"] == ["subrepresentation", 1]

    def test_flag_check(self, write, capsys):
        ranks = write("flag.json", [
            {"n": 3, "r": 1, "values": [[[1], "0"], [[2], "0"], [[3], "0"]]},
            UNIFORM_32,
        ])
        assert run(capsys, "flag-check", ranks)[0] == 0

    def test_relations_count(self, write, capsys):
        q = write("q.json", KRONECKER)
        code, out = run(capsys, "relations", q)
        assert code == 0
        assert out["result"]["count"] == len(out["result"]["relations"]) == 2
        rel = out["result"]["relations"][0]
        assert set(rel) == {"kind", "where", "I", "J", "classical", "tropical"}

    def test_relations_of_zero_arrow(self, write, capsys):
        zero = {"n": 3, "vertices": ["u", "w"], "dim": {"u": 1, "w": 1},
                "arrows": [{"src": "u", "dst": "w", "matrix_field": [["0"] * 3] * 3}]}
        code, out = run(capsys, "relations", write("q.json", zero))
        assert code == 0
        assert all(rel["tropical"] and rel["classical"] for rel in out["result"]["relations"])

    def test_tls_member_all_infinite_point(self, write, capsys):
        # every circuit term is infinite, so the minimum counts as attained twice
        p = write("p.json", ["inf", "inf", "inf"])
        code, out = run(capsys, "tls-member", write("m.json", UNIFORM_32), p)
        assert code == 0 and out["result"] is True and out["certificate"] is None

    def test_explicit_origin_entry_is_implicit(self, write, capsys):
        m = write("m.json", UNIFORM_32)
        entries = [{"i": 1, "to": 2, "shift": "1"}, {"i": 2, "to": 1, "shift": "0"},
                   {"i": 3, "to": "o", "shift": "inf"}]
        outs = []
        for f in (entries, entries + [{"i": "o", "to": "o", "shift": "inf"}]):
            code, out = run(capsys, "induce", m, write("f.json", {"n": 3, "f": f}))
            assert code == 0
            outs.append(out["result"])
        assert outs[0] == outs[1]

    def test_inputs_are_read_once_and_digested(self, write, capsys, monkeypatch):
        paths = [write("map.json", MAP_2), write("mu.json", POINT_00), write("nu.json", POINT_E1)]
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code, out = run(capsys, "morphism-check", *paths)
        assert code in (0, 1) and sorted(opened) == sorted(paths)
        for path in paths:
            with open(path, "rb") as fh:
                assert out["inputs"][path] == hashlib.sha256(fh.read()).hexdigest()

    def test_morphism_check(self, write, capsys):
        f = write("f.json", {"n": 3, "f": [
            {"i": 1, "to": 1, "shift": "0"},
            {"i": 2, "to": 2, "shift": "0"},
            {"i": 3, "to": 3, "shift": "0"},
        ]})
        m = write("m.json", UNIFORM_32)
        assert run(capsys, "morphism-check", f, m, m)[0] == 0


class TestErrors:
    def test_missing_file(self, capsys):
        code, out = run(capsys, "check-matroid", "/nonexistent/m.json")
        assert code == 2 and "error" in out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        code, out = run(capsys, "check-matroid", str(path))
        assert code == 2 and "malformed" in out["error"]

    def test_bad_matroid_shape(self, write, capsys):
        code, out = run(capsys, "check-matroid", write("m.json", {"n": 3}))
        assert code == 2

    def test_flag_check_requires_array(self, write, capsys):
        code, out = run(capsys, "flag-check", write("m.json", UNIFORM_32))
        assert code == 2

    def test_non_integer_map_entry(self, write, capsys):
        f = write("f.json", {"n": 3, "f": [{"i": "x", "to": 1, "shift": "0"}]})
        code, out = run(capsys, "induce", write("m.json", UNIFORM_32), f)
        assert code == 2 and "map entry i" in out["error"]

    def test_non_list_subset(self, write, capsys):
        m = write("m.json", {"n": 3, "r": 1, "values": [[1, "0"]]})
        code, out = run(capsys, "check-matroid", m)
        assert code == 2 and "[subset, value]" in out["error"]

    def test_string_ground_set_size(self, write, capsys):
        m = write("m.json", dict(UNIFORM_32, n="2"))
        code, out = run(capsys, "check-matroid", m)
        assert code == 2 and "n must be an integer" in out["error"]

    @pytest.mark.parametrize("command,data", [
        ("check-matroid", dict(UNIFORM_32, values=5)),
        ("relations", dict(KRONECKER, n="2")),
        ("relations", dict(KRONECKER, dim={"u": 1, "w": 1.0})),
        ("relations", dict(KRONECKER, dim={"u": True, "w": 1})),
        ("relations", dict(KRONECKER, vertices=[["u"], "w"])),
        ("relations", dict(KRONECKER, arrows=[dict(KRONECKER["arrows"][0], src=["u"])])),
        # rationals are non-bool integers or "p" / "p/q" strings only
        ("check-matroid", dict(UNIFORM_32, values=[[[1, 2], "1e10000000"]])),
        ("check-matroid", dict(UNIFORM_32, values=[[[1, 2], "1.5"]])),
        ("check-matroid", dict(UNIFORM_32, values=[[[1, 2], "1/0"]])),
        ("check-matroid", dict(UNIFORM_32, values=[[[1, 2], "9" * 5000]])),
        ("realize", [[True, "0"]]),
        ("realize", [[[{"c": True, "e": "0"}], "0"]]),
        ("realize", [[[{"c": "1", "e": True}], "0"]]),
        ("realize", [[[{"c": "1", "e": " 1_0"}], "0"]]),
        # matrix rows must be arrays
        ("realize", [1, 2]),
        ("relations", dict(KRONECKER, arrows=[
            {"src": "u", "dst": "w", "matrix_trop": ["00", "00"]}])),
    ])
    def test_malformed_field(self, write, capsys, command, data):
        code, out = run(capsys, command, write("in.json", data))
        assert code == 2 and "error" in out

    def test_relations_past_the_cap(self, write, capsys):
        # 61 bytes of input, about 2e16 (I, J) pairs to walk
        q = write("q.json", {"n": 30, "vertices": ["v"], "arrows": [], "dim": {"v": 15}})
        code, out = run(capsys, "relations", q)
        assert code == 2 and set(out) == {"command", "error"}
        assert "cap" in out["error"]

    @pytest.mark.parametrize("argv", [
        ["circuits", "m"],
        ["cocircuits", "m"],
        ["tls-member", "m", "point"],
        ["induce", "m", "map"],
        ["morphism-check", "map", "m", "m"],
        ["containment-check", "identity", "m", "m"],
        ["qdr-check", "quiver", "tuple"],
        ["qdr-check", "--cross-check", "quiver", "tuple"],
    ])
    def test_subset_walks_past_the_cap(self, write, capsys, argv):
        # 90 bytes of matroid: n = 30, rank 15, one finite basis; each walk
        # would visit C(30, 14..16), about 1.5e8 subsets, or a product of two
        identity = [["0" if i == j else "inf" for j in range(30)] for i in range(30)]
        m = {"n": 30, "r": 15, "values": [[list(range(1, 16)), "0"]]}
        files = {
            "m": m,
            "point": ["0"] * 30,
            "map": {"n": 30, "f": [{"i": i, "to": i, "shift": "0"} for i in range(1, 31)]},
            "identity": identity,
            "quiver": {"n": 30, "vertices": ["u", "w"], "dim": {"u": 15, "w": 15},
                       "arrows": [{"src": "u", "dst": "w", "matrix_trop": identity}]},
            "tuple": {"u": m, "w": m},
        }
        argv = [write(a + ".json", files[a]) if a in files else a for a in argv]
        start = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2 and set(out) == {"command", "error"}
        assert "the cap is 20000" in out["error"]

    @pytest.mark.parametrize("argv", [
        ["check-matroid", "m"],
        ["quotient", "m", "m"],
        ["flag-check", "flag"],
        ["morphism-check", "map", "m", "m"],
        ["qdr-check", "quiver", "tuple"],
    ])
    def test_exchange_walk_past_the_cap(self, write, capsys, argv):
        # the uniform matroid U(12, 6), 26 KB: 924 bases, so 853776 pairs of
        # bases for the exchange axiom (792 * 924 for the flag)
        def uniform(r):
            return {"n": 12, "r": r, "values": [[list(b), "0"] for b in combinations(range(1, 13), r)]}

        m = uniform(6)
        files = {
            "m": m,
            "flag": [uniform(5), m],
            "map": {"n": 12, "f": [{"i": i, "to": i, "shift": "0"} for i in range(1, 13)]},
            "quiver": {"n": 12, "vertices": ["u", "w"], "dim": {"u": 6, "w": 6},
                       "arrows": [{"src": "u", "dst": "w", "matrix_field": [
                           ["1" if i == j else "0" for j in range(12)] for i in range(12)]}]},
            "tuple": {"u": m, "w": m},
        }
        argv = [write(a + ".json", files[a]) if a in files else a for a in argv]
        start = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 2 and set(out) == {"command", "error"}
        assert "pairs of bases; the cap is 20000" in out["error"]

    @pytest.mark.parametrize("argv", [["check-matroid", "m"], ["quotient", "m", "m"]])
    def test_sparse_table_on_a_large_ground_set(self, write, capsys, argv):
        # few pairs of bases, far more pairs of subsets: the walk over pairs
        # of bases decides, below the cap and quickly
        argv = [write("m.json", SPARSE_12) if a == "m" else a for a in argv]
        start = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code in (0, 1) and "error" not in out

    @pytest.mark.parametrize("argv,ranks", [
        (argv, ranks) for ranks in [(0, 14), (15, 30)] for argv in [
            ["quotient", "mu", "nu"],
            ["flag-check", "flag"],
            ["containment-check", "identity", "mu", "nu"],
        ]] + [(["qdr-check", "--cross-check", "quiver", "tuple"], (15, 30))],
        ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else x[0])
    def test_no_relation_on_a_large_ground_set(self, write, capsys, argv, ranks):
        # rank(mu) = 0 or rank(nu) = n: no (I, J) pair and one pair of bases,
        # though one side alone has C(30, 15) subsets
        r, s = ranks
        identity = [["0" if i == j else "inf" for j in range(30)] for i in range(30)]
        mu = {"n": 30, "r": r, "values": [[list(range(1, r + 1)), "0"]]}
        nu = {"n": 30, "r": s, "values": [[list(range(1, s + 1)), "0"]]}
        files = {
            "mu": mu,
            "nu": nu,
            "flag": [mu, nu],
            "identity": identity,
            "quiver": {"n": 30, "vertices": ["u", "w"], "dim": {"u": r, "w": s},
                       "arrows": [{"src": "u", "dst": "w", "matrix_trop": identity}]},
            "tuple": {"u": mu, "w": nu},
        }
        argv = [write(a + ".json", files[a]) if a in files else a for a in argv]
        start = time.monotonic()
        code, out = run(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 0 and "error" not in out

    @pytest.mark.parametrize("argv,code,message", LARGE_N,
                             ids=["-".join(argv) for argv, _, _ in LARGE_N])
    def test_ground_set_the_file_does_not_bound(self, write, capsys, argv, code, message):
        argv = [write(a + ".json", LARGE_N_FILES[a]) if a in LARGE_N_FILES else a for a in argv]
        start = time.monotonic()
        got, out = run(capsys, *argv)
        assert time.monotonic() - start < 2.0
        assert got == code
        if code == 2:
            assert out == {"command": argv[0], "error": message}
        else:
            assert out["certificate"] is None

    def test_oversized_integer(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"n": %s, "r": 1, "values": []}' % ("9" * 5000))
        code, out = run(capsys, "check-matroid", str(path))
        assert code == 2 and "malformed" in out["error"]

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[" * 100000)
        code, out = run(capsys, "check-matroid", str(path))
        assert code == 2 and "malformed" in out["error"]

    def test_oversized_rational_in_result(self, write, capsys):
        # each exponent is within the 4300-digit limit, their sum is not
        big = [{"c": "1", "e": "9" * 4300}]
        code, out = run(capsys, "realize", write("a.json", [[big, "0"], ["0", big]]))
        assert code == 2 and "too large" in out["error"]

    def test_oversized_rational_in_relations(self, write, capsys):
        # the loop diag(1/10^4299, 1/(10^4299 - 1)) merges its two diagonal
        # terms, both on p_1 p_2, into 1/L, L the lcm of the denominators,
        # whose 8598 digits are past the int-to-str limit
        big = 10 ** 4299
        q = {"n": 2, "vertices": ["u"], "dim": {"u": 1}, "arrows": [
            {"src": "u", "dst": "u",
             "matrix_field": [["1/%d" % big, "0"], ["0", "1/%d" % (big - 1)]]}]}
        code, out = run(capsys, "relations", write("q.json", q))
        assert code == 2 and set(out) == {"command", "error"} and "too large" in out["error"]

    def test_oversized_rational_in_certificate(self, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_command", lambda args: (False, (Fraction(10) ** 4300,)))
        code, out = run(capsys, "check-matroid", write("m.json", UNIFORM_32))
        assert code == 2 and "too large" in out["error"]

    def test_internal_error_exits_3(self, write, capsys, monkeypatch):
        def fail(args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "_run_command", fail)
        code, out = run(capsys, "check-matroid", write("m.json", UNIFORM_32))
        assert code == 3 and set(out) == {"command", "error"}
        assert out["error"] == "internal error: ZeroDivisionError: division by zero"

    def test_relation_walk_without_exchange_triple_exits_3(self, write, capsys, monkeypatch):
        # U(3, 2) is a valuated matroid with full support, decided by the
        # three-term kernel: a failing relation reported by it has no
        # violating triple behind it, which is never an accept
        monkeypatch.setattr(matroid, "_three_term_failure", lambda m: True)
        code, out = run(capsys, "check-matroid", write("m.json", UNIFORM_32))
        assert code == 3 and set(out) == {"command", "error"}
        assert out["error"].startswith("internal error: RuntimeError: ")

    def test_incidence_kernel_without_exchange_triple_exits_3(self, write, capsys, monkeypatch):
        # U(4, 1) is a quotient of U(4, 2), both supports full and U(4, 2) a
        # valuated matroid, so the incidence kernel decides: a failure
        # reported by it has no violating triple behind it
        def uniform(r):
            return {"n": 4, "r": r, "values": [[list(b), "0"] for b in combinations(range(1, 5), r)]}

        monkeypatch.setattr(matroid, "_incidence_failure", lambda mu, nu: True)
        code, out = run(capsys, "quotient", write("mu.json", uniform(1)), write("nu.json", uniform(2)))
        assert code == 3 and set(out) == {"command", "error"}
        assert out["error"].startswith("internal error: RuntimeError: ")

    def test_partial_support_walk_without_exchange_triple_exits_3(self, write, capsys,
                                                                  monkeypatch):
        # every pair of [4] but {1, 2}, all valued 0: a valuated matroid whose
        # support is not full, so the relation walk decides (16 relation
        # pairs against 25 pairs of bases)
        def spurious(entries, mu, nu, grouped, pick=None):
            return ((), None), ((), None)

        values = [[list(b), "0"] for b in combinations(range(1, 5), 2) if b != (1, 2)]
        monkeypatch.setattr(matroid, "_unique_minimum", spurious)
        data = {"n": 4, "r": 2, "values": values}
        code, out = run(capsys, "check-matroid", write("m.json", data))
        assert code == 3 and set(out) == {"command", "error"}
        assert out["error"].startswith("internal error: RuntimeError: ")

    @pytest.mark.parametrize("command,files,message", EXIT_2,
                             ids=["-".join([c] + [n for n, _ in f]) for c, f, _ in EXIT_2])
    def test_rejected_input(self, write, capsys, command, files, message):
        code, out = run(capsys, command, *[write(name + ".json", data) for name, data in files])
        assert code == 2 and set(out) == {"command", "error"}
        assert message in out["error"]

    # one subset or one map element given twice: not in EXIT_2, whose
    # records scripts/cli_golden.py hashes
    @pytest.mark.parametrize("command,files,message", [
        ("check-matroid", [("m", dict(UNIFORM_32, values=[
            [[1, 2], "0"], [[2, 1], "5"], [[1, 3], "0"], [[2, 3], "0"]]))],
         "subset (1, 2) is given two values"),
        ("check-matroid", [("m", dict(UNIFORM_32, values=[
            [[1, 2], "0"], [[1, 2], "inf"], [[1, 3], "0"], [[2, 3], "0"]]))],
         "subset [1, 2] is listed twice"),
        ("induce", [("m", UNIFORM_32), ("f", {"n": 3, "f": [
            {"i": i, "to": i, "shift": "0"} for i in (1, 2, 3)] + [
            {"i": 1, "to": 3, "shift": "7"}]})],
         "map entry i = 1 is listed twice"),
    ], ids=["reordered-subset", "repeated-subset", "repeated-map-element"])
    def test_repeated_subset_or_map_element(self, write, capsys, command, files, message):
        code, out = run(capsys, command, *[write(name + ".json", data) for name, data in files])
        assert code == 2 and out["error"] == message

    # not in EXIT_2 either: a map's origin entry must fix the origin, an
    # arrow's tropical layer must be the valuation of its field layer, and a
    # target is checked even where an infinite shift sends it to the origin
    @pytest.mark.parametrize("command,files,message", [
        ("induce", [("m", UNIFORM_32), ("f", {"n": 3, "f": [
            {"i": i, "to": i, "shift": "0"} for i in (1, 2, 3)] + [
            {"i": "o", "to": 2, "shift": "5"}]})], "the origin maps to itself"),
        ("induce", [("m", UNIFORM_32), ("f", {"n": 3, "f": [
            {"i": i, "to": i, "shift": "0"} for i in (1, 2, 3)] + [
            {"i": "o", "to": "o", "shift": "0"}]})], "the origin maps to itself"),
        ("relations", [("q", dict(KRONECKER, arrows=[
            {"src": "u", "dst": "w", "matrix_field": [["1", "0"], ["0", [{"c": "1", "e": "1/2"}]]],
             "matrix_trop": [["0", "inf"], ["inf", "1"]]}]))],
         "is not the valuation of its field layer"),
        ("induce", [("m", UNIFORM_32), ("f", {"n": 3, "f": [
            {"i": 1, "to": 1, "shift": "0"}, {"i": 2, "to": 99, "shift": "inf"},
            {"i": 3, "to": 3, "shift": "0"}]})], "target 99 outside [1..3]"),
    ], ids=["origin-moved", "origin-shifted", "two-layers", "infinite-shift-target"])
    def test_origin_entry_and_arrow_layers(self, write, capsys, command, files, message):
        code, out = run(capsys, command, *[write(name + ".json", data) for name, data in files])
        assert code == 2 and set(out) == {"command", "error"} and message in out["error"]

    def test_non_list_map_entries(self, write, capsys):
        f = write("f.json", {"n": 3, "f": 5})
        code, out = run(capsys, "induce", write("m.json", UNIFORM_32), f)
        assert code == 2 and "error" in out

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


def _exited(capsys, call):
    """(exit code, stdout, stderr) of call(), which argparse ends."""
    with pytest.raises(SystemExit) as exc:
        call()
    return (exc.value.code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=[" ".join(a) or "(none)" for a in USAGE_ARGVS])
def test_usage_is_the_full_parsers(capsys, argv):
    expected = _exited(capsys, lambda: cli.build_parser().parse_args(argv))
    assert _exited(capsys, lambda: main(argv)) == expected


def test_a_well_formed_call_builds_no_parser(write, capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw))
    path = write("m.json", UNIFORM_32)
    for _ in range(2):
        assert main(["check-matroid", path]) == 0
    assert added == []
    # an argv the table hands over builds the full parser, each time: no
    # parser is kept between calls
    for _ in range(2):
        assert main(["check-matroid", "--", path]) == 0
    assert added == list(cli.COMMANDS) * 2


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # one line per subcommand, besides the {a,b,...} of the usage line
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert set(cli.COMMANDS) <= listed


def test_python_dash_m_runs_the_cli(write):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tropquiver", "check-matroid",
                           write("m.json", DISCONNECTED)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["certificate"] == [[1, 2], [3, 4], 1]


# the n = 7 identity chain, ranks (3, 5): its relations verdict is about
# 1.5 MB of JSON
CHAIN_7 = {"n": 7, "vertices": ["v1", "v2"], "dim": {"v1": 3, "v2": 5},
           "arrows": [{"src": "v1", "dst": "v2",
                       "matrix_field": [["1" if i == j else "0" for j in range(7)]
                                        for i in range(7)]}]}


def test_closed_stdout_exits_141_quietly(write):
    # the reader stops after a few bytes of a verdict far larger than a pipe
    # holds, so a later write fails: that is no failed predicate (exit 1)
    # and no traceback, but the status of a process ended by SIGPIPE
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-m", "tropquiver", "relations",
                             write("chain7.json", CHAIN_7)],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(16) == b'{\n  "certificate'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")


U31 = {"n": 3, "r": 1, "values": [[[1], "0"], [[2], "0"], [[3], "0"]]}
MAP_3 = {"n": 3, "f": [{"i": 1, "to": 1, "shift": "3"}, {"i": 2, "to": 3, "shift": "1"},
                       {"i": 3, "to": 2, "shift": "0"}]}
# One call per subcommand: (argv before the files, [(file name, document), ...]).
ONE_PER_COMMAND = [
    (["check-matroid"], [("m", DISCONNECTED)]),
    (["circuits"], [("m", UNIFORM_32)]),
    (["cocircuits"], [("m", UNIFORM_32)]),
    (["tls-member"], [("m", UNIFORM_32), ("p", ["0", "1", "2"])]),
    (["quotient"], [("mu", U31), ("nu", UNIFORM_32)]),
    (["induce"], [("m", UNIFORM_32), ("f", MAP_3)]),
    (["morphism-check"], [("f", MAP_3), ("m", UNIFORM_32), ("m", UNIFORM_32)]),
    (["monomial-decompose"], [("a", [["0", [{"c": "2", "e": "3"}]], ["1", "0"]])]),
    (["realize"], [("a", [["1", [{"c": "1", "e": "1"}], "0"], ["0", "1", "-1/2"]])]),
    (["qdr-check", "--cross-check"], [("q", KRONECKER), ("mus", {"u": POINT_00, "w": POINT_E1})]),
    (["containment-check"], [("a", IDENTITY_2), ("mu", POINT_00), ("nu", POINT_E1)]),
    (["qgr-witness-check"], [("q", KRONECKER), ("mus", {"u": POINT_E1, "w": POINT_E1}),
                             ("wit", {"u": [["1", "0"]], "w": [["1", "0"]]})]),
    (["flag-check"], [("flag", [U31, UNIFORM_32])]),
    (["relations"], [("q", KRONECKER)]),
]


def test_one_call_per_command_covers_every_command():
    assert sorted(argv[0] for argv, _ in ONE_PER_COMMAND) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("argv,files", ONE_PER_COMMAND, ids=[a[0] for a, _ in ONE_PER_COMMAND])
def test_verdict_is_indented_with_sorted_keys(write, capsys, argv, files):
    code = main(argv + [write(name + ".json", data) for name, data in files])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_long_verdict_is_written_in_batches(write, capsys):
    # some 10^5 chunks, written in a few dozen calls
    assert main(["relations", write("chain7.json", CHAIN_7)]) == 0
    verdict = json.loads(capsys.readouterr().out)

    class Counting(io.StringIO):
        writes = 0

        def write(self, s):
            self.writes += 1
            return super().write(s)

    stream = Counting()
    jsonio.dump(verdict, stream)
    assert stream.getvalue() == json.dumps(verdict, indent=2, sort_keys=True)
    assert len(stream.getvalue()) > 10 ** 6 and stream.writes < 200
