import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bipolaraba import (Cnf, construct_sat_baf, construct_skept_pbaf,
                        instantiate_baf, parse_baf, parse_pbaf)
from bipolaraba.cli import main
from conftest import build_ex22
from test_aba import EX22_TEXT

EX32_TEXT = """\
p baf 5
att 0 1
att 1 0
att 3 2
att 1 4
sup 1 2
sup 3 4
name 0 x
name 1 y
name 2 z
name 3 u
name 4 v
"""

EX38_TEXT = "p baf 3\natt 0 1\nsup 2 1\nname 0 x\nname 1 y\nname 2 z\n"

MUTUAL_TEXT = "p baf 2\natt 0 1\natt 1 0\nname 0 p\nname 1 q\n"

FIG_DIMACS = "p cnf 3 3\n1 2 0\n-1 3 0\n-1 -3 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def aba_file(tmp_path):
    path = tmp_path / "ex22.aba"
    path.write_text(EX22_TEXT)
    return str(path)


@pytest.fixture
def baf_file(tmp_path):
    path = tmp_path / "ex32.baf"
    path.write_text(EX32_TEXT)
    return str(path)


# ------------------------------------------------------------------- solve

def test_solve_aba_enumerate(capsys, aba_file):
    code, out, _ = run(capsys, "solve", aba_file, "--sigma", "pr")
    assert code == 0
    assert out == "[a,c,d]\n[b]\ncount: 2\n"


def test_solve_baf_enumerate(capsys, baf_file):
    code, out, _ = run(capsys, "solve", baf_file, "--sigma", "co")
    assert code == 0
    assert out == "[x,u,v]\ncount: 1\n"


def test_solve_single_argument_stable(capsys, tmp_path):
    path = tmp_path / "one.baf"
    path.write_text("p baf 1\n")
    code, out, _ = run(capsys, "solve", str(path), "--sigma", "stb")
    assert code == 0
    assert out == "[0]\ncount: 1\n"


def test_solve_empty_extension(capsys, tmp_path):
    path = tmp_path / "f.baf"
    path.write_text(EX38_TEXT)
    code, out, _ = run(capsys, "solve", str(path), "--sigma", "gr")
    assert code == 0
    assert out == "[]\ncount: 1\n"


def test_solve_declared_formalism(capsys, baf_file):
    code, out, _ = run(capsys, "solve", "baf", baf_file, "--sigma", "co")
    assert code == 0
    assert out == "[x,u,v]\ncount: 1\n"
    code, _, err = run(capsys, "solve", "aba", baf_file)
    assert code == 1
    assert "declared as aba" in err
    code, _, err = run(capsys, "solve", "cnf", baf_file)
    assert code == 1
    assert "unknown formalism" in err


def test_solve_decision_tasks(capsys, baf_file):
    code, out, _ = run(capsys, "solve", baf_file, "--sigma", "pr",
                       "--task", "cred", "--query", "y")
    assert code == 0
    assert out == "YES\n"
    code, out, _ = run(capsys, "solve", baf_file, "--sigma", "pr",
                       "--task", "skept", "--query", "y")
    assert out == "NO\n"
    code, out, _ = run(capsys, "solve", baf_file, "--sigma", "co",
                       "--task", "Ver", "--query", "x,u,v")
    assert out == "YES\n"
    code, out, _ = run(capsys, "solve", baf_file, "--sigma", "co",
                       "--task", "cred", "--query", "0")
    assert out == "YES\n"


def test_solve_json(capsys, aba_file):
    code, out, _ = run(capsys, "solve", aba_file, "--sigma", "pr",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "semantics": "pr", "task": "enumerate", "query": None,
        "extensions": [["a", "c", "d"], ["b"]], "answer": None}
    code, out, _ = run(capsys, "solve", aba_file, "--sigma", "co",
                       "--task", "cred", "--query", "b", "--format", "json")
    payload = json.loads(out)
    assert payload["answer"] is False
    assert payload["extensions"] is None


def test_solve_classic(capsys, tmp_path):
    path = tmp_path / "m.baf"
    path.write_text(MUTUAL_TEXT)
    code, out, _ = run(capsys, "solve", str(path), "--sigma", "stb",
                       "--classic")
    assert code == 0
    assert "count: 2\n" in out


def test_classic_size_guard(capsys, tmp_path):
    path = tmp_path / "ring.baf"
    path.write_text("p baf 17\n" + "".join(f"att {i} {(i + 1) % 17}\n"
                                           for i in range(17)))
    code, out, err = run(capsys, "solve", str(path), "--classic")
    assert code == 3
    assert "guard:" in err and "limit is 16" in err
    assert out == ""


def test_classic_rejects_supports(capsys, baf_file):
    code, _, err = run(capsys, "solve", baf_file, "--sigma", "co", "--classic")
    assert code == 1
    assert "error:" in err


def test_classic_rejects_aba(capsys, aba_file):
    code, _, err = run(capsys, "solve", aba_file, "--classic")
    assert code == 1
    assert "BAF" in err


def test_solve_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(EX32_TEXT))
    code, out, _ = run(capsys, "solve", "-", "--sigma", "co")
    assert code == 0
    assert "[x,u,v]" in out


def test_missing_query(capsys, baf_file):
    for task in ("cred", "skept", "ver"):
        code, _, err = run(capsys, "solve", baf_file, "--task", task)
        assert code == 1
        assert "--query" in err


# --------------------------------------------------------------- translate

def test_translate_baf(capsys, aba_file):
    code, out, _ = run(capsys, "translate", aba_file)
    assert code == 0
    assert "# arg 0 concludes a from a" in out
    assert parse_baf(out) == instantiate_baf(build_ex22()).baf


def test_translate_pbaf(capsys, aba_file):
    code, out, _ = run(capsys, "translate", aba_file, "--target", "pbaf")
    assert code == 0
    assert "p pbaf 9 9" in out
    assert parse_pbaf(out).premise_bound == 9


def test_translate_rejects_baf_input(capsys, baf_file):
    code, _, err = run(capsys, "translate", baf_file)
    assert code == 1
    assert "expects an ABA file" in err


def test_translate_cap_exit(capsys, aba_file):
    code, _, err = run(capsys, "translate", aba_file, "--cap", "3")
    assert code == 3
    assert "guard:" in err


# ------------------------------------------------------------------ reduce

def test_reduce_sat_baf(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(FIG_DIMACS)
    code, out, _ = run(capsys, "reduce", str(path), "--construction", "sat-baf")
    assert code == 0
    assert parse_baf(out) == construct_sat_baf(Cnf(3, [(1, 2), (-1, 3), (-1, -3)]))


def test_reduce_skept_pbaf(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(FIG_DIMACS)
    code, out, _ = run(capsys, "reduce", str(path),
                       "--construction", "skept-pbaf")
    assert code == 0
    assert parse_pbaf(out) == construct_skept_pbaf(
        Cnf(3, [(1, 2), (-1, 3), (-1, -3)]))


def test_reduce_parse_error(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 1\n0\n")
    code, _, err = run(capsys, "reduce", str(path), "--construction", "sat-baf")
    assert code == 2
    assert "parse error:" in err


# -------------------------------------------------------------------- fuzz

def test_fuzz_constructions_text(capsys):
    code, out, _ = run(capsys, "fuzz", "--checks", "constructions",
                       "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert "0 failures" in lines[-1]


def test_fuzz_correspondence_json(capsys):
    code, out, _ = run(capsys, "fuzz", "--checks", "correspondence",
                       "--count", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert data["cases_run"] > 0


def test_fuzz_defense(capsys):
    code, out, _ = run(capsys, "fuzz", "--checks", "defense-eq",
                       "--count", "2")
    assert code == 0
    assert "0 failures" in out


def test_fuzz_all_checks_by_default(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "1")
    assert code == 0
    assert "defense-equivalence" in out
    assert "sat-baf-nonempty-iff-sat" in out
    assert "0 failures" in out


@pytest.mark.parametrize("count", ["0", "-3", "two"])
def test_fuzz_count_below_one_rejected(capsys, count):
    # a run that checks nothing must not exit 0
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count: expected a positive integer" in captured.err


# -------------------------------------------------------------- export-dot

def test_export_dot_baf(capsys, baf_file):
    code, out, _ = run(capsys, "export-dot", baf_file)
    assert code == 0
    assert out.startswith("digraph framework {")
    assert '  n0 [label="x"];' in out
    assert "  n0 -> n1;" in out
    assert "  n1 -> n2 [style=dashed];" in out


def test_export_dot_pbaf_premises(capsys, tmp_path):
    path = tmp_path / "f.pbaf"
    path.write_text("p pbaf 2 4\nprem 0 1 3\natt 0 1\nname 0 u\nname 1 w\n")
    code, out, _ = run(capsys, "export-dot", str(path))
    assert code == 0
    assert '[label="u [1,3]"];' in out
    assert '[label="w []"];' in out


def test_export_dot_aba_instantiates(capsys, aba_file):
    code, out, _ = run(capsys, "export-dot", aba_file)
    assert code == 0
    assert '[label="({a},nb)"];' in out
    assert out.count("[label=") == 9


# ------------------------------------------------------------- exit codes

def test_exit_code_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.baf"
    path.write_text("p baf 2\natt 0 9\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "parse error:" in err


@pytest.mark.parametrize("header", ["p baf 2", "p pbaf 2 1"])
def test_exit_code_duplicate_argument_names(capsys, tmp_path, header):
    path = tmp_path / "dup.txt"
    path.write_text(f"{header}\nname 0 x\nname 1 x\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err == "parse error: duplicate argument names\n"


def test_exit_code_unknown_header(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p graph 2\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "unrecognized header" in err


def test_exit_code_unknown_query(capsys, baf_file):
    code, _, err = run(capsys, "solve", baf_file, "--task", "cred",
                       "--query", "nosuch")
    assert code == 1
    assert "nosuch" in err


def test_exit_code_size_guard(capsys, tmp_path):
    path = tmp_path / "big.baf"
    path.write_text("p baf 30\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "guard:" in err


# ------------------------------------------------------------- determinism

def test_repeated_runs_are_byte_identical(capsys, aba_file, baf_file):
    for argv in (("solve", aba_file, "--sigma", "pr"),
                 ("solve", baf_file, "--sigma", "ad", "--format", "json"),
                 ("translate", aba_file, "--target", "pbaf"),
                 ("fuzz", "--checks", "constructions", "--count", "2"),
                 ("export-dot", baf_file)):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


# ------------------------------------------------------------ golden output

DATA = Path(__file__).parent / "data"


def solve_transcript(capsys, path):
    """`solve` output for every semantics, as text and as JSON."""
    out = []
    for sigma in ("cf", "ad", "co", "gr", "pr", "stb"):
        for fmt in ("text", "json"):
            code, stdout, _ = run(capsys, "solve", str(path), "--sigma", sigma,
                                  "--format", fmt)
            assert code == 0
            out.append(f"$ solve {path.name} --sigma {sigma} --format {fmt}\n")
            out.append(stdout)
    return "".join(out)


@pytest.mark.parametrize("name", ["golden.pbaf", "golden.aba"])
def test_solve_output_is_pinned(capsys, name):
    # pBAF members print in id order, whatever their names; ABA members
    # print in name order, so a10 comes before a2
    want = (DATA / f"{name}.out").read_text()
    assert solve_transcript(capsys, DATA / name) == want


# ------------------------------------------------------------- memory bound

def test_decisions_on_two_to_the_22_extensions_fit_in_memory(tmp_path):
    # an attack-free frame of 22 arguments has 2^22 admissible sets: a
    # decision tests their masks and builds no set per extension
    resource = pytest.importorskip("resource")
    path = tmp_path / "free.baf"
    path.write_text("p baf 22\n")
    limit = 3 << 29  # 1.5 GB of address space

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for task, query in (("ver", "0,1"), ("cred", "0")):
        proc = subprocess.run(
            [sys.executable, "-m", "bipolaraba.cli", "solve", str(path),
             "--sigma", "ad", "--task", task, "--query", query],
            capture_output=True, text=True, env=env, preexec_fn=cap_memory,
            timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "YES\n"), proc.stderr
