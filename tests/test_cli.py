"""Command line front end: exit codes, JSON payloads, error handling."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tropquiver import cli
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

    def test_oversized_rational_in_certificate(self, write, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_command", lambda args: (False, (Fraction(10) ** 4300,)))
        code, out = run(capsys, "check-matroid", write("m.json", UNIFORM_32))
        assert code == 2 and "too large" in out["error"]

    def test_non_list_map_entries(self, write, capsys):
        f = write("f.json", {"n": 3, "f": 5})
        code, out = run(capsys, "induce", write("m.json", UNIFORM_32), f)
        assert code == 2 and "error" in out

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


def test_python_dash_m_runs_the_cli(write):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tropquiver", "check-matroid",
                           write("m.json", DISCONNECTED)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["certificate"] == [[1, 2], [3, 4], 1]
