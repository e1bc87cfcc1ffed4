import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatcover
from flatcover import InvariantError
from flatcover.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def test_orbit_table(run):
    code, out, _ = run("orbit", "--origami", "n=5 h=(1,2) v=(2,3,4,5)")
    assert code == 0
    assert "size     18" in out
    assert "stratum  H(2)" in out


def test_orbit_json(run):
    code, out, _ = run("orbit", "--origami", "n=1 h= v=",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 1 and data["stratum"] == "torus"


def test_orbit_cap_error(run):
    code, _, err = run("orbit", "--origami", "n=5 h=(1,2) v=(2,3,4,5)",
                       "--cap", "2")
    assert code == 2
    assert "error" in err


def test_orbit_cap_below_one_error(run):
    for cap in ("0", "-5"):
        code, out, err = run("orbit", "--cap", cap, "--origami", "n=1 h= v=")
        assert code == 2 and out == "" and "error" in err


def test_orbit_bad_origami(run):
    for text in ("n=4 h=(1,2) v=(3,4)",              # not transitive
                 "n=3 h=(1,2) v=(1,2,3) z=9",        # unknown key
                 "n=3 h=(1,2) h=(2,3) v=(1,2,3)"):   # repeated key
        code, _, err = run("orbit", "--origami", text)
        assert code == 2 and "error" in err


def test_orbit_huge_degree_rejected_before_allocating(run):
    # two 2-cycles write 4 square indices; a transitive pair of degree
    # >= 2 writes every square, so n = 10^12 is refused without a 10^12 list
    code, out, err = run("orbit", "--origami", "n=1000000000000 h=(1,2) v=(2,3)")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_echoes(run):
    code, out, _ = run("echoes", "--discriminant", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["hyp"] == [[2], [3, 5, 9, 13]]
    code, out, _ = run("echoes", "--discriminant", "17", "--e", "-1")
    assert code == 0 and "{3, 9, 13}" in out


def test_echoes_default_spin_of_d9_is_the_admissible_one(run):
    code, out, _ = run("echoes", "--discriminant", "9")
    assert code == 0
    assert (code, out) == run("echoes", "--discriminant", "9", "--e", "-1")[:2]


def test_echoes_invalid_discriminant(run):
    # no prototype L(b, e) has these parameters
    for argv in (["echoes", "--discriminant", "4"], ["echoes", "--discriminant", "6"],
                 ["echoes", "--discriminant", "7"], ["echoes", "--discriminant", "-3"],
                 ["echoes", "--discriminant", "17", "--e", "0"],
                 ["covers", "--b", "3", "--e", "1"], ["covers", "--b", "2", "--e", "1"]):
        code, out, err = run(*argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_primitive(run):
    code, out, _ = run("primitive", "--d", "4", "--e", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["primitive_labels"] == [1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15]
    code, out, _ = run("primitive", "--d", "5", "--e", "-1")
    assert code == 0 and "primitive labels" in out


@pytest.mark.parametrize("d, e", [("4", "1"), ("3", "1"), ("-5", "1")])
def test_primitive_rejects_inadmissible_spin(run, d, e):
    # even d needs e = 0, d = 3 only e = -1, and d must be at least 3
    code, out, err = run("primitive", "--d", d, "--e", e)
    assert code == 2 and out == "" and "error" in err


def test_decagon(run, monkeypatch):
    code, out, _ = run("decagon", "--max-n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == {"2": 3, "3": 1, "4": 3, "5": 8}
    code, _, err = run("decagon", "--max-n", "1")
    assert code == 2 and "error" in err

    # memory grows like n^4: above the cap of 40, no count is started
    def no_count(n):
        raise AssertionError(f"N({n}) was computed")
    monkeypatch.setattr("flatcover.cli.decagon_cyclic_echo_count", no_count)
    code, out, err = run("decagon", "--max-n", "41")
    assert code == 2 and out == "" and "between 2 and 40" in err


def test_covers_pinned(run):
    code, out, _ = run("covers", "--b", "6", "--e", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["label"] for r in rows] == list(range(1, 16))
    arf0 = sorted(r["label"] for r in rows if r["arf"] == 0)
    assert arf0 == [2, 3, 5, 9, 13]
    assert all(r["stratum"] == "H(2,2)" for r in rows)


def test_covers_generic_origami(run):
    code, out, _ = run("covers", "--origami", "n=5 h=(1,2) v=(2,3,4,5)")
    assert code == 0
    assert out.count("H(2,2)") == 15


def test_covers_rejects_a_base_outside_h2(run, monkeypatch):
    # the lifts of a base in H(1,1) lie in H(1,1,1,1) and have no Arf
    # invariant: the base is refused before any cover is built
    def no_covers(*args):
        raise AssertionError("a cover was built")

    monkeypatch.setattr("flatcover.cli.all_double_covers", no_covers)
    code, out, err = run("covers", "--origami", "n=4 h=(1,2) v=(1,3)(2,4)")
    assert code == 2 and out == ""
    assert "H(1,1)" in err


def test_covers_argument_exclusivity(run):
    code, _, err = run("covers")
    assert code == 2 and "error" in err
    code, _, err = run("covers", "--b", "6")
    assert code == 2 and "error" in err
    code, _, err = run("covers", "--origami", "n=5 h=(1,2) v=(2,3,4,5)",
                       "--b", "6", "--e", "1")
    assert code == 2 and "error" in err


def test_sts(run):
    code, out, _ = run("sts", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 5 and data["ok"]
    code, out, _ = run("sts", "--n", "4")
    assert code == 0 and "5 orbits" in out


def test_verify_fast(run):
    code, out, _ = run("verify", "--fast")
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    # every criterion passes; criterion 14 flags the reference phi(n) bound
    # in its detail line without failing on it
    assert code == 0
    assert len(lines) == 15
    assert sum(l.startswith("PASS") for l in lines) == 15
    assert "RESULT: all criteria passed" in out
    c14 = next(l for l in lines if "criterion 14" in l)
    assert "b=4,n=5:" in c14 and "phi(n)=4 flagged (2 < 4)" in c14
    # the whole report, pinned
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "13b9ed9f11983b6fb7b2b7795a5578e76ad2394599572975d789f4db0558cec4")


def test_usage_errors_exit_2(run):
    assert run("frobnicate")[0] == 2
    assert run()[0] == 2
    assert run("orbit")[0] == 2


def test_internal_invariant_failure_exits_1(run, monkeypatch):
    import flatcover.cli

    def broken(*args):
        raise InvariantError("orbit blocks mix hyperelliptic and odd labels")

    monkeypatch.setattr(flatcover.cli, "echoes_of_WD", broken)
    code, out, err = run("echoes", "--discriminant", "8")
    assert code == 1 and out == ""
    assert "orbit blocks mix" in err


def test_help_and_version_exit_0(run):
    assert run("--help")[0] == 0
    assert run("--version")[0] == 0


def test_python_dash_m_version_exits_0():
    env = dict(os.environ, PYTHONPATH=str(Path(flatcover.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "flatcover", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("flatcover ")


def test_determinism(run):
    a = run("echoes", "--discriminant", "12", "--format", "json")
    b = run("echoes", "--discriminant", "12", "--format", "json")
    assert a == b
