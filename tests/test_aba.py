import pytest

from bipolaraba import (AbaFramework, CapExceeded, NotAnAssumption,
                        ParseError, TooLarge, aba_closure, aba_decide,
                        aba_defends, aba_extensions, attacks,
                        enumerate_arguments, format_aba, parse_aba, theory)
from bipolaraba.harness import GenParams, random_aba
from conftest import build_ex22, build_ex44, build_motivating
from reference_impl import family, naive_aba_extensions

SEMANTICS = ("cf", "ad", "co", "gr", "pr", "stb")


def fam(extensions):
    return sorted(sorted(e) for e in extensions)


EX22_TEXT = """\
p aba 8
a 1
a 2
a 3
a 4
c 1 5
c 2 6
c 3 7
c 4 8
r 6 1
r 5 2
r 8 2
r 6 3
r 4 3
name 1 a
name 2 b
name 3 c
name 4 d
name 5 na
name 6 nb
name 7 nc
name 8 nd
"""


def test_parse_matches_programmatic(ex22):
    assert parse_aba(EX22_TEXT) == ex22


def test_format_parse_round_trip(ex22, ex44, motivating):
    for frame in (ex22, ex44, motivating):
        assert parse_aba(format_aba(frame)) == frame


def test_format_is_a_fixpoint(ex22):
    once = format_aba(ex22)
    assert format_aba(parse_aba(once)) == once


@pytest.mark.parametrize("text,fragment", [
    ("a 1\n", "missing 'p aba"),
    ("p aba 2\np aba 2\n", "duplicate header"),
    ("p aba two\n", "expected an integer"),
    ("p aba 2\na 3\n", "out of range"),
    ("p aba 2\nz 1\n", "unknown directive"),
    ("p aba 2\na 1\nc 1 2\nc 1 2\n", "already has a contrary"),
    ("p aba 2\na 1\n", "no contrary"),
    ("p aba 2\nc 1 2\n", "not an assumption"),
    ("p aba 2\nname 1 x\nname 2 x\n", "duplicate atom names"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_aba(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_aba("p aba 2\na 9\n")
    assert err.value.line == 2


def test_theory_and_closure(ex22):
    assert theory(ex22, {"c"}) == {"c", "d", "nb"}
    assert aba_closure(ex22, {"c"}) == {"c", "d"}
    assert aba_closure(ex22, {"a"}) == {"a"}
    assert theory(ex22, []) == set()


def test_closure_is_not_trivial_for_nonflat(ex44):
    # the framework is not flat: two assumptions derive a third
    assert aba_closure(ex44, {"a", "b"}) == {"a", "b", "c"}
    assert aba_closure(ex44, {"a"}) == {"a"}


def test_attacks(ex22):
    assert attacks(ex22, {"a"}, {"b"})
    assert attacks(ex22, {"b"}, {"c", "d"})
    assert not attacks(ex22, {"a"}, {"c"})
    assert not attacks(ex22, [], {"a"})


def test_attacks_rejects_non_assumptions(ex22):
    with pytest.raises(NotAnAssumption):
        attacks(ex22, {"na"}, {"a"})


def test_enumerate_arguments(ex22):
    args = enumerate_arguments(ex22)
    assert len(args) == 9
    got = sorted((tuple(sorted(a.support)), a.conclusion) for a in args)
    assert got == [(("a",), "a"), (("a",), "nb"), (("b",), "b"),
                   (("b",), "na"), (("b",), "nd"), (("c",), "c"),
                   (("c",), "d"), (("c",), "nb"), (("d",), "d")]
    # assumption bases come first, in assumption order
    assert [a.conclusion for a in args[:4]] == ["a", "b", "c", "d"]


def test_enumerate_arguments_deduplicates():
    # two rules deriving the same head from the same assumption
    frame = AbaFramework(["a", "p", "q"], ["a"], {"a": "q"},
                         [("p", ("a",)), ("q", ("p",)), ("q", ("a",))])
    args = enumerate_arguments(frame)
    assert len(args) == 3  # base, ({a},p), one copy of ({a},q)


def test_enumerate_arguments_cap(ex22):
    with pytest.raises(CapExceeded):
        enumerate_arguments(ex22, cap=3)


def test_enumerate_returns_fresh_list(ex22):
    first = enumerate_arguments(ex22)
    first.pop()
    assert len(enumerate_arguments(ex22)) == 9


def test_defends_both_modes(ex22, ex44):
    assert aba_defends(ex22, {"b"}, "b")
    assert aba_defends(ex22, {"b"}, "b", mode="attacker-closure")
    assert aba_defends(ex44, {"a", "b"}, "c")
    assert aba_defends(ex44, {"a", "b"}, "c", mode="attacker-closure")
    assert not aba_defends(ex22, [], "a")


def test_defends_argument_errors(ex22):
    with pytest.raises(NotAnAssumption):
        aba_defends(ex22, {"a"}, "na")
    with pytest.raises(ValueError):
        aba_defends(ex22, {"a"}, "a", mode="nope")


def test_extensions_ex22(ex22):
    assert fam(aba_extensions(ex22, "ad")) == [
        [], ["a"], ["a", "c", "d"], ["a", "d"], ["b"], ["c", "d"]]
    assert fam(aba_extensions(ex22, "co")) == [["a", "c", "d"]]
    assert fam(aba_extensions(ex22, "gr")) == [["a", "c", "d"]]
    assert fam(aba_extensions(ex22, "pr")) == [["a", "c", "d"], ["b"]]
    assert fam(aba_extensions(ex22, "stb")) == [["a", "c", "d"]]


def test_extensions_require_closedness(ex22):
    # {c} alone is conflict-free but not closed, so it is not admissible
    assert frozenset({"c"}) not in aba_extensions(ex22, "ad")
    assert frozenset({"c", "d"}) in aba_extensions(ex22, "ad")


def test_extensions_ex44(ex44):
    assert fam(aba_extensions(ex44, "ad")) == [[], ["a"], ["b"]]
    assert aba_extensions(ex44, "co") == []
    assert aba_extensions(ex44, "gr") == [frozenset()]
    assert fam(aba_extensions(ex44, "stb")) == []


def test_extensions_motivating(motivating):
    assert fam(aba_extensions(motivating, "co")) == [["cc", "mr"]]
    assert fam(aba_extensions(motivating, "gr")) == [["cc", "mr"]]
    assert fam(aba_extensions(motivating, "stb")) == [["cc", "mr"]]


def test_extensions_guard(ex22):
    # 25 assumptions, one past ENUM_LIMIT: refused before any table exists
    asms = [f"a{i}" for i in range(25)]
    wide = AbaFramework(asms + ["x"], asms, {a: "x" for a in asms}, [])
    with pytest.raises(TooLarge) as exc:
        aba_extensions(wide, "ad")
    assert (exc.value.value, exc.value.limit) == (25, 24)
    with pytest.raises(ValueError):
        aba_extensions(ex22, "nope")


def test_extensions_beyond_64_atoms():
    # a 70-atom chain from a1 to the contrary of a2, with rules whose head
    # and body sit on either side of atom 64
    chain = [f"p{j}" for j in range(1, 71)]
    asms = ["a1", "a2", "a3", "a4"]
    contrary = {a: "n" + a for a in asms}
    rules = [("p1", ("a1",))]
    rules += [(chain[j + 1], (chain[j],)) for j in range(len(chain) - 1)]
    rules += [("na2", ("p70",)), ("na1", ("a2",)), ("a4", ("a3",)),
              ("na3", ("a4", "p66")), ("na4", ("p3", "a2"))]
    frame = AbaFramework(asms + list(contrary.values()) + chain, asms,
                         contrary, rules)
    assert len(frame.atoms) > 64
    assert theory(frame, {"a1"}) >= {"p70", "na2"}
    frames = [frame] + [random_aba(GenParams(n_atoms=80, n_assumptions=5,
                                             n_rules=150, max_body=2, seed=s))
                        for s in range(5)]
    for fr in frames:
        for sigma in SEMANTICS:
            assert family(aba_extensions(fr, sigma)) == \
                family(naive_aba_extensions(fr, sigma)), (fr, sigma)


def test_contrary_derived_from_facts_leaves_assumption_undefended():
    # the contrary of a follows from the fact f: the empty set is a minimal
    # attacker of a, and no set can attack the empty set
    frame = AbaFramework(["a", "b", "na", "nb", "f"], ["a", "b"],
                         {"a": "na", "b": "nb"},
                         [("f", ()), ("na", ("f",)), ("nb", ("a",))])
    for s in ([], ["a"], ["b"], ["a", "b"]):
        assert not aba_defends(frame, s, "a")
        assert not aba_defends(frame, s, "a", mode="attacker-closure")
    for sigma in SEMANTICS:
        got = aba_extensions(frame, sigma)
        assert family(got) == family(naive_aba_extensions(frame, sigma))
        if sigma != "cf":
            assert all("a" not in e for e in got), sigma


def test_defends_closed_sets_agrees_with_attacker_closure():
    frames = [build_ex22(), build_ex44(), build_motivating()]
    frames += [random_aba(GenParams(n_assumptions=5, seed=s)) for s in range(20)]
    for frame in frames:
        asms = frame.assumptions
        for m in range(1 << len(asms)):
            s = [a for i, a in enumerate(asms) if m >> i & 1]
            for a in asms:
                assert aba_defends(frame, s, a) == \
                    aba_defends(frame, s, a, mode="attacker-closure"), (s, a)



def test_defends_closed_sets_with_shared_engine():
    frames = [build_ex22(), build_ex44(), build_motivating()]
    frames += [random_aba(GenParams(n_assumptions=5, seed=s)) for s in range(10)]
    for frame in frames:
        asms = frame.assumptions
        eng = frame.engine()
        for m in range(1 << len(asms)):
            s = [a for i, a in enumerate(asms) if m >> i & 1]
            for a in asms:
                assert aba_defends(frame, s, a, engine=eng) == \
                    aba_defends(frame, s, a), (s, a)

def test_decide(ex22, ex44):
    assert aba_decide(ex22, "cred", "pr", "b") is True
    assert aba_decide(ex22, "skept", "pr", "b") is False
    assert aba_decide(ex22, "skept", "co", "a") is True
    assert aba_decide(ex22, "ver", "ad", {"a", "d"}) is True
    assert aba_decide(ex22, "ver", "ad", {"a", "b"}) is False
    # empty family: skeptical acceptance is vacuously true
    assert aba_decide(ex44, "skept", "stb", "a") is True
    assert aba_decide(ex44, "cred", "stb", "a") is False


def test_decide_errors(ex22):
    with pytest.raises(NotAnAssumption):
        aba_decide(ex22, "cred", "co", "nb")
    with pytest.raises(ValueError):
        aba_decide(ex22, "sometask", "co", "a")


def test_instances_are_independent():
    one = build_ex22()
    two = build_ex22()
    enumerate_arguments(one)
    assert one == two
