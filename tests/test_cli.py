import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bipolaraba import (Cnf, construct_sat_baf, construct_skept_pbaf,
                        instantiate_baf, parse_baf, parse_pbaf)
from bipolaraba import cli
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


def test_solve_pbaf_with_80_premise_ids(capsys, tmp_path):
    # 8 arguments, each with 10 private premise ids: no premise-id limit
    path = tmp_path / "wide.pbaf"
    path.write_text("p pbaf 8 80\natt 0 1\natt 1 0\n" + "".join(
        "prem %d %s\n" % (i, " ".join(str(10 * i + k) for k in range(10)))
        for i in range(8)))
    code, out, err = run(capsys, "solve", str(path), "--sigma", "pr")
    assert (code, err) == (0, "")
    assert out == "[0,2,3,4,5,6,7]\n[1,2,3,4,5,6,7]\ncount: 2\n"


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


def byte_stdin(data):
    """A stdin whose bytes `_read` takes from its buffer, decoded by a
    wrapper that, like a POSIX locale's, would let any byte through."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="surrogateescape")


def test_solve_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", byte_stdin(EX32_TEXT.encode()))
    code, out, _ = run(capsys, "solve", "-", "--sigma", "co")
    assert code == 0
    assert "[x,u,v]" in out


@pytest.mark.parametrize("verb", [["solve"], ["translate"],
                                  ["reduce", "--construction", "sat-baf"],
                                  ["export-dot"]])
def test_unreadable_input_exits_with_a_one_line_message(capsys, tmp_path, verb):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe")
    cases = ((tmp_path / "missing", 1, "error: cannot read "),
             (tmp_path, 1, "error: cannot read "),
             (binary, 2, f"parse error: not UTF-8 text: {binary}\n"))
    for path, want, start in cases:
        code, out, err = run(capsys, verb[0], str(path), *verb[1:])
        assert (code, out) == (want, "")
        assert err.startswith(start) and err.count("\n") == 1, err


@pytest.mark.parametrize("data", [EX32_TEXT.encode(),
                                  b"p baf 1\nname 0 \xff\n",
                                  b"p baf 1\r\nname 0 \xc3\xa9\r\n"])
def test_stdin_and_a_file_give_the_same_answer(capsys, monkeypatch, tmp_path,
                                               data):
    path = tmp_path / "in.baf"
    path.write_bytes(data)
    from_file = run(capsys, "solve", str(path), "--format", "json")
    monkeypatch.setattr("sys.stdin", byte_stdin(data))
    from_stdin = run(capsys, "solve", "-", "--format", "json")
    assert from_stdin == from_file[:2] + (from_file[2].replace(str(path), "-"),)


def test_stdin_that_is_not_utf8_is_a_parse_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"p baf 1\n\xff\xfe\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(capsys, "solve", "-") == (2, "", "parse error: not UTF-8 text: -\n")


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


@pytest.mark.parametrize("count", ["0", "-3", "two", "\u0663", "1_0"])
def test_fuzz_count_below_one_rejected(capsys, count):
    # a run that checks nothing must not exit 0
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count: expected a positive integer" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["fuzz", "--seed", "1_0"], "--seed: expected an integer, got '1_0'"),
    (["fuzz", "--seed", "\u0663"], "--seed: expected an integer, got '\u0663'"),
    (["fuzz", "--seed", "x"], "--seed: expected an integer, got 'x'"),
    (["translate", "f.aba", "--cap", "1_0"],
     "--cap: expected a non-negative integer, got '1_0'"),
    (["translate", "f.aba", "--cap", "\u0663"],
     "--cap: expected a non-negative integer, got '\u0663'"),
    (["translate", "f.aba", "--cap", "-5"],
     "--cap: expected a non-negative integer, got '-5'"),
    (["export-dot", "f.baf", "--cap", "1_0"],
     "--cap: expected a non-negative integer, got '1_0'"),
    (["export-dot", "f.baf", "--cap", "\u0663"],
     "--cap: expected a non-negative integer, got '\u0663'"),
    (["export-dot", "f.baf", "--cap", "-5"],
     "--cap: expected a non-negative integer, got '-5'"),
])
def test_integer_options_are_ascii_decimal(capsys, argv, message):
    # the integer rule of the file formats and --query: an optional sign
    # and ASCII digits, refused by argparse before any file is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_integer_options_take_signs():
    args = cli._parser().parse_args(["fuzz", "--seed", "-3", "--count", "+2"])
    assert (args.seed, args.count) == (-3, 2)
    args = cli._parser().parse_args(["translate", "f.aba", "--cap", "0"])
    assert args.cap == 0


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
    assert "expected 'p aba <n>' or 'p baf <n>' or 'p pbaf" in err


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


def test_the_kept_parser_answers_as_a_fresh_one(capsys, monkeypatch,
                                                aba_file, baf_file):
    # main builds its argparse tree once per process: no default, such as
    # fuzz's --checks list, may carry over from one request to the next
    requests = (("solve", baf_file, "--sigma", "pr"),
                ("fuzz", "--count", "1"),
                ("solve", baf_file, "--sigma", "ad", "--task", "cred",
                 "--query", "x", "--format", "json"),
                ("translate", aba_file, "--target", "pbaf"))
    kept = [run(capsys, *argv) for argv in requests]
    assert [code for code, _, _ in kept] == [0, 0, 0, 0]
    assert cli._parser() is cli._parser()
    parsed = [vars(cli._parser().parse_args(argv)) for argv in requests]
    assert parsed[1]["checks"] == ["correspondence", "defense-eq",
                                   "constructions"]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run(capsys, *argv) for argv in requests] == kept
    assert [vars(cli.build_parser().parse_args(argv))
            for argv in requests] == parsed


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


@pytest.mark.parametrize("name", ["golden.pbaf", "golden.aba",
                                  "golden_nonatomic.aba", "golden_names.pbaf"])
def test_solve_output_is_pinned(capsys, name):
    # pBAF members print in id order, whatever their names; ABA members
    # print in name order, so a10 comes before a2; golden.aba is atomic
    # (no rule body of two atoms) and golden_nonatomic.aba is not, so each
    # ABA engine builder is pinned; golden_names.pbaf has names that JSON
    # escapes or that look like list syntax, an empty family (stb) and the
    # family of the empty set alone (gr)
    want = (DATA / f"{name}.out").read_text(encoding="utf-8")
    assert solve_transcript(capsys, DATA / name) == want


def replay(capsys, transcript):
    """Run the "$" lines of a transcript in tests/data, each followed by
    its output; the CI step replays them on the installed console script."""
    want = (DATA / transcript).read_text(encoding="utf-8")
    out = []
    for line in want.splitlines(keepends=True):
        if line.startswith("$ "):
            verb, name, *args = line.split()[1:]
            code, stdout, _ = run(capsys, verb, str(DATA / name), *args)
            assert code == 0
            out += [line, stdout]
    assert "".join(out) == want


def test_decision_tasks_on_a_pbaf_are_pinned(capsys):
    # cred, skept and ver on a pBAF, as text and as JSON
    replay(capsys, "golden.pbaf.tasks.out")


def test_reduce_output_is_pinned(capsys):
    # every construction on a satisfiable and an unsatisfiable formula
    replay(capsys, "reduce.out")


@pytest.mark.parametrize("name, argv", [
    ("fuzz.out", ["--count", "20"]),
    ("fuzz.json", ["--count", "3", "--format", "json"]),
    # a graph whose ad family holds 16,417 sets
    ("fuzz_large.json", ["--seed", "771069229", "--count", "1",
                         "--format", "json"])])
def test_fuzz_output_is_pinned(capsys, name, argv):
    # every default check, with the guard messages of skipped frames; the
    # CI step diffs the installed console script against the same files
    code, out, _ = run(capsys, "fuzz", *argv)
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


def test_co_gr_and_stb_tasks_are_pinned(capsys):
    # enumerate, cred, skept and ver under co, gr and stb on an ABA
    # framework, a pBAF and sat24.baf, the 24-argument sat-baf gadget of
    # sat24.cnf (3 models: 5 complete and 3 stable extensions, and a
    # grounded set that is not complete), which the first line rebuilds
    replay(capsys, "golden.tasks.out")


# ------------------------------------------------------------- memory bound

def run_capped(limit, *argv):
    """The interpreter on argv in a fresh process with `limit` bytes of
    address space."""
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        preexec_fn=cap_memory, timeout=300)


def solve_capped(tmp_path, n, limit, *args):
    """`solve` on an attack-free frame of n arguments in a fresh process
    with `limit` bytes of address space."""
    path = tmp_path / "free.baf"
    path.write_text(f"p baf {n}\n")
    return run_capped(limit, "-m", "bipolaraba.cli", "solve", str(path), *args)


def test_decisions_on_two_to_the_22_extensions_fit_in_memory(tmp_path):
    # an attack-free frame of 22 arguments has 2^22 admissible sets: a
    # decision tests their masks and builds no set per extension
    limit = 3 << 29  # 1.5 GB of address space
    for task, query in (("ver", "0,1"), ("cred", "0")):
        proc = solve_capped(tmp_path, 22, limit, "--sigma", "ad", "--task",
                            task, "--query", query)
        assert (proc.returncode, proc.stdout) == (0, "YES\n"), proc.stderr


def test_enumerating_two_to_the_20_extensions_fits_in_memory(tmp_path):
    # the 2^20 admissible sets of an attack-free frame of 20 arguments are
    # written from the fragments of their halves, with no tuple or string
    # per set: about 190 MB (text) and 230 MB (JSON) of address space,
    # where member tuples and a json.dumps walk took 370 and 470 MB
    limit = 5 << 26  # 320 MB of address space
    proc = solve_capped(tmp_path, 20, limit, "--sigma", "ad")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[]\n[0]\n[0,1]\n[0,1,2]\n")
    assert proc.stdout.endswith("\n[18,19]\n[19]\ncount: 1048576\n")
    assert proc.stdout.count("\n") == (1 << 20) + 1
    proc = solve_capped(tmp_path, 20, limit, "--sigma", "ad", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        '{"answer": null, "extensions": [[], ["0"], ["0", "1"], ')
    assert proc.stdout.endswith(
        ', ["19"]], "query": null, "semantics": "ad", "task": "enumerate"}\n')
    assert proc.stdout.count("[") == (1 << 20) + 1


def test_co_gr_and_stb_on_24_free_arguments_fit_in_memory(tmp_path):
    # the grounded core S* of an attack-free frame is every argument, so
    # each factor of the candidate join keeps one half: the 90-100 MB of
    # address space that importing numpy takes, where joining all 2^24
    # conflict-free sets took 460 MB
    limit = 200 << 20
    every = ",".join(map(str, range(24)))
    requests = ((("--task", "enumerate"), f"[{every}]\ncount: 1\n"),
                (("--task", "cred", "--query", "0"), "YES\n"),
                (("--task", "skept", "--query", "23"), "YES\n"),
                (("--task", "ver", "--query", every), "YES\n"))
    for sigma in ("co", "gr", "stb"):
        for args, want in requests:
            proc = solve_capped(tmp_path, 24, limit, "--sigma", sigma, *args)
            assert (proc.returncode, proc.stdout) == (0, want), proc.stderr


def test_co_and_pr_on_24_atomic_assumptions_fit_in_memory(tmp_path):
    # 12 pairs of assumptions i, i+1 whose one-atom rules derive each
    # other's contrary: an atomic framework, whose engine has two factors
    # of 2^12 entries, where the theory table over all 2^24 assumption
    # sets does not fit. Each of the 3^12 sets holding at most one of
    # each pair is complete, and the 2^12 holding one of each preferred.
    lines = ["p aba 48"] + [f"a {i}" for i in range(1, 25)]
    lines += [f"c {i} {i + 24}" for i in range(1, 25)]
    lines += [f"r {i + 24 + d} {i + 1 - d}" for i in range(1, 25, 2)
              for d in (0, 1)]
    path = tmp_path / "pairs.aba"
    path.write_text("\n".join(lines) + "\n")
    limit = 200 << 20
    for sigma, count in (("co", 3 ** 12), ("pr", 2 ** 12)):
        proc = run_capped(limit, "-m", "bipolaraba.cli", "solve", str(path),
                          "--sigma", sigma)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(f"\ncount: {count}\n")
        assert proc.stdout.count("\n") == count + 1
    # members in name order, so 10 comes before 3
    assert proc.stdout.startswith("[1,10,11,13,15,17,19,21,23,3,5,7]\n")


def test_running_out_of_memory_is_one_line_and_exit_4(tmp_path):
    # ad on an attack-free frame of 24 arguments joins all 2^24 sets, some
    # 350 MB, which a 250 MB address space does not hold
    proc = solve_capped(tmp_path, 24, 250 << 20, "--sigma", "ad", "--task",
                        "cred", "--query", "0")
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("out of memory")


def test_maximality_over_all_two_to_the_24_masks_fits_in_memory():
    # the maximal masks of all 2^24 sets come from tables of 2^24 bits:
    # about 200 MB of address space, where the 2^24-entry bool table and
    # its per-bit uint32 gathers took 356 MB
    limit = 17 << 24  # 272 MB of address space
    proc = run_capped(
        limit, "-c", "import numpy as np; "
        "from bipolaraba.masks import maximal_masks; "
        "print(maximal_masks(np.arange(1 << 24, dtype=np.uint32), 24).tolist())")
    assert (proc.returncode, proc.stdout) == (0, f"[{(1 << 24) - 1}]\n"), \
        proc.stderr


def test_a_nonatomic_aba_solve_never_imports_numpy_ma():
    # numpy imports numpy.ma on a process's first np.unique call: 8-15 ms
    # and about 1.7 MB of peak RSS that no solve needs
    path = Path(__file__).parent / "data" / "golden_nonatomic.aba"
    proc = run_capped(
        1 << 30, "-c", "import sys; from bipolaraba import cli; "
        f"cli.main(['solve', {str(path)!r}, '--sigma', 'co']); "
        "print('numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_the_benchmark_tracer_finds_every_engine_method(tmp_path):
    # perfbench/tracer.py wraps the SubsetEngine methods it names in
    # ENGINE_METHODS: a method renamed away breaks the traced benchmark
    root = Path(__file__).parent.parent
    path = tmp_path / "three.pbaf"
    path.write_text("p pbaf 3 2\natt 0 1\nsup 1 2\nprem 0 0\nprem 2 1\n")
    code = (
        "from tracer import ENGINE_METHODS, Tracer\n"
        "from bipolaraba import cli\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.job = 0\n"
        "for sigma in ('ad', 'stb'):\n"
        f"    cli.main(['solve', {str(path)!r}, '--sigma', sigma])\n"
        "seen = {span[0] for span in tracer.spans}\n"
        "print([m for m in ENGINE_METHODS\n"
        "       if 'masks.SubsetEngine.' + m not in seen])\n")
    paths = [str(root / "perfbench"), str(root / "src"),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
