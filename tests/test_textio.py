"""The input rules every format shares through `textio`: the shape of each
'p' header, and integer tokens of an optional sign and ASCII digits."""
import pytest

from bipolaraba import (ParseError, parse_aba, parse_baf, parse_dimacs,
                        parse_pbaf)
from bipolaraba.cli import load_framework, main

ABA = "'p aba <n>'"
BAF = "'p baf <n>'"
PBAF = "'p pbaf <n> <premise bound>'"
CNF = "'p cnf <vars> <clauses>'"
ANY = f"{ABA} or {BAF} or {PBAF}"


@pytest.mark.parametrize("parse, shape, wrong", [
    (parse_aba, ABA, [("p aba 2 2", ABA), ("p baf 2", ABA)]),
    (parse_baf, BAF, [("p baf", BAF), ("p pbaf 2 4", BAF)]),
    (parse_pbaf, PBAF, [("p pbaf 2", PBAF), ("p baf 2", PBAF)]),
    (parse_dimacs, CNF, [("p cnf 2", CNF), ("p dimacs 1 1", CNF)]),
    (load_framework, ANY, [("p graph 2", ANY), ("p cnf 1 1", ANY),
                           ("p aba", ABA), ("p baf 2 2", BAF),
                           ("p pbaf 2", PBAF)]),
], ids=["aba", "baf", "pbaf", "dimacs", "detection"])
def test_header_errors_name_the_header(parse, shape, wrong):
    cases = [("", f"missing {shape} header"),
             ("# note\n\nx 1\np aba 1\n", f"line 3: missing {shape} header"),
             ("p\n", f"line 1: expected {shape}")]
    cases += [(f"# note\n{line}\n", f"line 2: expected {want}")
              for line, want in wrong]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message, text


@pytest.mark.parametrize("token", ["1_0", "٣", "1_1"])
def test_integer_tokens_are_ascii_decimal(token, tmp_path, capsys):
    refused = [(parse_aba, f"p aba {token}\n"),
               (parse_aba, f"p aba 12\na 1\nc 1 {token}\n"),
               (parse_baf, f"p baf {token}\n"),
               (parse_baf, f"p baf 12\natt 0 {token}\n"),
               (parse_pbaf, f"p pbaf {token} 1\n"),
               (parse_pbaf, f"p pbaf 12 12\nprem 0 {token}\n"),
               (load_framework, f"p baf {token}\n"),
               (parse_dimacs, f"p cnf {token} 1\n1 0\n"),
               (parse_dimacs, f"p cnf 12 1\n{token} 0\n")]
    for parse, text in refused:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert f"expected an integer, got {token!r}" in str(err.value), text
    path = tmp_path / "twelve.baf"
    path.write_text("p baf 12\n")
    code = main(["solve", str(path), "--task", "cred", "--query", token])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: \"unknown argument '{token}'\"\n"


def test_a_sign_and_leading_zeros_are_integers():
    frame = parse_baf("p baf +12\natt 011 -0\n")
    assert (frame.n, frame.att) == (12, [(11, 0)])
    assert frame.resolve("+011") == 11
    assert parse_dimacs("p cnf 2 1\n+1 -02 0\n").clauses == [(1, -2)]
