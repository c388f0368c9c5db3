import hashlib

import pytest

from bipolaraba import (Cnf, EmptyClause, ParseError, Pbaf, TooLarge,
                        baf_decide, baf_extensions, brute_force_sat,
                        construct_gr_baf, construct_sat_baf,
                        construct_skept_baf, construct_skept_pbaf, format_baf,
                        format_dimacs, format_pbaf, parse_dimacs,
                        pbaf_extensions)
from bipolaraba.harness import exhaustive_three_var_cnfs, random_cnf

FIG = Cnf(3, [(1, 2), (-1, 3), (-1, -3)])          # satisfiable
UNSAT1 = Cnf(1, [(1,), (-1,)])                     # smallest contradiction


def named(frame, ext):
    return sorted(frame.names[i] for i in ext)


def named_family(frame, extensions):
    return sorted(named(frame, e) for e in extensions)


# ------------------------------------------------------------------- CNF

def test_cnf_validation():
    assert Cnf(2, [[1, -2]]).clauses == [(1, -2)]
    with pytest.raises(EmptyClause):
        Cnf(2, [()])
    with pytest.raises(ValueError):
        Cnf(2, [(3,)])
    with pytest.raises(ValueError):
        Cnf(2, [(0,)])


def test_parse_dimacs():
    text = """\
c a comment
p cnf 3 3
1 2 0
-1 3 0
-1 -3 0
"""
    assert parse_dimacs(text) == FIG


def test_parse_dimacs_clause_spans_lines():
    cnf = parse_dimacs("p cnf 3 1\n1\n2 3 0\n")
    assert cnf.clauses == [(1, 2, 3)]


def test_parse_dimacs_percent_comment():
    cnf = parse_dimacs("p cnf 1 1\n1 0\n%\n")
    assert cnf.clauses == [(1,)]


def test_format_dimacs_golden():
    assert format_dimacs(FIG) == "p cnf 3 3\n1 2 0\n-1 3 0\n-1 -3 0\n"
    assert parse_dimacs(format_dimacs(FIG)) == FIG
    assert format_dimacs(Cnf(2, [])) == "p cnf 2 0\n"


@pytest.mark.parametrize("text, fragment, line", [
    ("p dimacs 1 1\n1 0\n", "expected 'p cnf", 1),
    ("p cnf x 1\n", "expected an integer, got 'x'", 1),
    ("p cnf -1 0\n", "expected a non-negative integer, got -1", 1),
    ("1 0\n", "missing 'p cnf <vars> <clauses>' header", 1),
    ("p cnf 1 1\none 0\n", "expected an integer, got 'one'", 2),
    ("p cnf 1 1\n2 0\n", "out of range", 2),
    ("p cnf 1 1\n0\n", "clause without literals", 2),
    ("", "missing 'p cnf <vars> <clauses>' header", None),
    ("p cnf 1 1\n1\n", "not 0-terminated", None),
    ("p cnf 1 2\n1 0\n", "header promises 2 clauses", None),
    ("p cnf 1 1\n1 0\np cnf 3 1\n", "duplicate header", 3),
])
def test_parse_dimacs_errors(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_brute_force_sat():
    assert brute_force_sat(FIG) is True
    assert brute_force_sat(UNSAT1) is False
    assert brute_force_sat(Cnf(0, [])) is True
    assert brute_force_sat(Cnf(3, [])) is True
    with pytest.raises(TooLarge):
        brute_force_sat(Cnf(25, []))


# ------------------------------------------- construction 1: co iff SAT

def test_sat_baf_shape():
    frame = construct_sat_baf(FIG)
    assert frame.names == ["x1", "nx1", "x2", "nx2", "x3", "nx3",
                           "c1", "c2", "c3", "top", "phi"]
    assert frame.sup == [(frame.resolve("top"), frame.resolve("phi"))]
    assert len(frame.att) == 2 * 3 + 6 + 3
    r = frame.resolve
    assert (r("nx1"), r("c2")) in frame.att
    assert (r("c3"), r("phi")) in frame.att
    assert (r("x1"), r("c2")) not in frame.att


def test_sat_baf_behaviour():
    co = baf_extensions(construct_sat_baf(FIG), "co")
    assert co
    frame = construct_sat_baf(FIG)
    for ext in co:
        assert frame.resolve("top") in ext
        assert frame.resolve("phi") in ext
    assert baf_extensions(construct_sat_baf(UNSAT1), "co") == []


def test_sat_baf_matches_oracle_on_small_formulas():
    for cnf in (FIG, UNSAT1, Cnf(2, [(1, -2), (-1, 2)]), Cnf(1, []),
                Cnf(2, [(1,), (-1, 2), (-2,)])):
        frame = construct_sat_baf(cnf)
        assert bool(baf_extensions(frame, "co")) == brute_force_sat(cnf), cnf


# ------------------------------------- construction 2: grounded iff SAT

def test_gr_baf_shape():
    frame = construct_gr_baf(FIG)
    assert frame.names[:8] == ["x1", "nx1", "xp1", "nxp1",
                               "x2", "nx2", "xp2", "nxp2"]
    assert len(frame.names) == 4 * 3 + 3 + 2
    assert len(frame.att) == 12 * 3 + 12 + 3
    r = frame.resolve
    assert (r("xp1"), r("nxp1")) in frame.att
    assert (r("nxp1"), r("c2")) in frame.att


def test_gr_baf_behaviour():
    sat_frame = construct_gr_baf(FIG)
    assert named_family(sat_frame, baf_extensions(sat_frame, "gr")) == \
        [["phi", "top"]]
    unsat_frame = construct_gr_baf(UNSAT1)
    assert baf_extensions(unsat_frame, "gr") == [frozenset()]


# ------------------- construction 3: psi-bar skeptically-co iff UNSAT

def test_skept_baf_shape():
    frame = construct_skept_baf(FIG)
    assert len(frame.names) == 2 * 3 + 3 + 3 * 3 + 2
    assert frame.names[-2:] == ["npsi", "psi"]
    r = frame.resolve
    assert (r("bot2"), r("bot2")) in frame.att
    assert (r("bot2"), r("d2")) in frame.att
    assert (r("psi"), r("npsi")) in frame.att
    assert frame.sup == [(r("top1"), r("d1")), (r("top2"), r("d2")),
                         (r("top3"), r("d3"))]


def test_skept_baf_unsat_complete_sets():
    frame = construct_skept_baf(UNSAT1)
    assert named_family(frame, baf_extensions(frame, "co")) == [
        ["c1", "d1", "npsi", "nx1", "top1"],
        ["c2", "d1", "npsi", "top1", "x1"]]
    assert named_family(frame, baf_extensions(frame, "gr")) == \
        [["d1", "npsi", "top1"]]
    assert baf_decide(frame, "skept", "co", "npsi") is True


def test_skept_baf_sat_complete_sets():
    frame = construct_skept_baf(FIG)
    co = baf_extensions(frame, "co")
    assert len(co) == 2 ** 3       # one extension per assignment
    assert baf_decide(frame, "skept", "co", "npsi") is False
    forced = {frame.resolve(nm) for i in (1, 2, 3)
              for nm in (f"top{i}", f"d{i}")}
    for ext in co:
        assert forced <= ext
        for i in (1, 2, 3):
            pos = frame.resolve(f"x{i}") in ext
            neg = frame.resolve(f"nx{i}") in ext
            assert pos != neg


# ---------------- construction 4: psi-bar skeptically-ad iff UNSAT

def test_skept_pbaf_shape():
    pframe = construct_skept_pbaf(FIG)
    frame = pframe.baf
    assert frame.sup == []
    assert frame.names[-4:] == ["psi", "npsi", "t", "bott"]
    r = frame.resolve
    assert (r("bot1"), r("bot1")) not in frame.att
    assert (r("bott"), r("t")) in frame.att
    assert (r("psi"), r("bott")) in frame.att
    assert (r("npsi"), r("bott")) in frame.att
    # d_i and t carry no premises, everything else a private one
    assert pframe.premises[r("d1")] == frozenset()
    assert pframe.premises[r("t")] == frozenset()
    marked = [p for p in pframe.premises if p]
    assert len(set(marked)) == len(marked)


def test_skept_pbaf_behaviour():
    sat_p = construct_skept_pbaf(FIG)
    assert len(pbaf_extensions(sat_p, "ad")) == 8
    assert baf_decide(sat_p, "skept", "ad", "npsi") is False
    unsat_p = construct_skept_pbaf(UNSAT1)
    assert len(pbaf_extensions(unsat_p, "ad")) == 2
    assert baf_decide(unsat_p, "skept", "ad", "npsi") is True
    for pframe in (sat_p, unsat_p):
        assert frozenset() not in pbaf_extensions(pframe, "ad")


def test_constructions_are_deterministic():
    for build in (construct_sat_baf, construct_gr_baf, construct_skept_baf):
        assert build(FIG) == build(FIG)
    assert construct_skept_pbaf(FIG) == construct_skept_pbaf(FIG)


# sha256 of each construction's formatted gadgets over the corpus below,
# which pins every name, edge and premise set in order, so `reduce` output
# stays byte-identical
GADGET_DIGESTS = {
    construct_sat_baf:
        "901785af37feb58222a4013437500096cca42fcb7b32c4035567f498b5119f0d",
    construct_gr_baf:
        "7738a6346497e4024035c214e4ff4cf8c90ff4fd7577ce2cf95ff7cc73338ae9",
    construct_skept_baf:
        "7e9a085cf056b8c052a948532f8fa5e23dd31922cd69c02e84abd9949abcfda7",
    construct_skept_pbaf:
        "1ebc1525d4c0425b038ce2c62436637ba5112fa49966bc3ff7891f085c23cafe",
}


@pytest.mark.parametrize("build", list(GADGET_DIGESTS),
                         ids=lambda build: build.__name__)
def test_gadget_text_is_pinned(build):
    corpus = exhaustive_three_var_cnfs()
    corpus += [random_cnf(seed) for seed in range(200)]
    corpus += [random_cnf(seed, 3, max_clauses=6) for seed in range(100)]
    corpus += [Cnf(0, []), Cnf(2, []), UNSAT1, Cnf(2, [(1, 1, -2)])]
    digest = hashlib.sha256()
    for cnf in corpus:
        built = build(cnf)
        fmt = format_pbaf if isinstance(built, Pbaf) else format_baf
        digest.update(fmt(built).encode())
    assert digest.hexdigest() == GADGET_DIGESTS[build]
