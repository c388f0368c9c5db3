import random

import numpy as np
import pytest

from bipolaraba import (Baf, Pbaf, ParseError, SolverError, SupportsPresent,
                        TooLarge, af_extensions, attack_range, baf_closure,
                        baf_decide, baf_defends, baf_extensions,
                        characteristic, format_baf, format_pbaf,
                        is_exhaustive, parse_baf, parse_pbaf, pbaf_extensions)
from bipolaraba.harness import random_baf, random_pbaf
from bipolaraba.masks import maximal_masks
from conftest import named_family, names_of
from reference_impl import (family, naive_baf_extensions,
                            naive_pbaf_extensions)

SEMANTICS = ("cf", "ad", "co", "gr", "pr", "stb")


def test_closure_and_range(ex32):
    assert names_of(ex32, baf_closure(ex32, ["y"])) == ["y", "z"]
    assert names_of(ex32, baf_closure(ex32, ["u"])) == ["u", "v"]
    assert names_of(ex32, baf_closure(ex32, ["x"])) == ["x"]
    assert names_of(ex32, attack_range(ex32, ["y"])) == ["v", "x"]
    assert attack_range(ex32, []) == frozenset()


def test_closure_distributes_over_union(ex32):
    whole = baf_closure(ex32, ["y", "u"])
    parts = baf_closure(ex32, ["y"]) | baf_closure(ex32, ["u"])
    assert whole == parts


def test_defends(ex32):
    assert baf_defends(ex32, ["y"], "z")
    assert baf_defends(ex32, ["u"], "u")
    assert baf_defends(ex32, ["u", "v"], "x")
    assert not baf_defends(ex32, [], "y")
    # both notions agree here
    for ext in ([], ["y"], ["u", "v"], ["x"]):
        for arg in range(5):
            assert (baf_defends(ex32, ext, arg) ==
                    baf_defends(ex32, ext, arg, mode="closed-sets"))


def test_characteristic(ex32):
    assert names_of(ex32, characteristic(ex32, ["u", "v"])) == ["u", "v", "x"]
    assert names_of(ex32, characteristic(ex32, ["y", "z"])) == ["u", "y", "z"]


def test_extensions_ex32(ex32):
    assert named_family(ex32, baf_extensions(ex32, "ad")) == [
        [], ["u", "v"], ["u", "v", "x"], ["v", "x"], ["x"], ["y", "z"]]
    assert named_family(ex32, baf_extensions(ex32, "co")) == [["u", "v", "x"]]
    assert named_family(ex32, baf_extensions(ex32, "gr")) == [["u", "v", "x"]]
    assert named_family(ex32, baf_extensions(ex32, "pr")) == [
        ["u", "v", "x"], ["y", "z"]]
    assert named_family(ex32, baf_extensions(ex32, "stb")) == [["u", "v", "x"]]


def test_extensions_ex38(ex38):
    assert named_family(ex38, baf_extensions(ex38, "ad")) == [[], ["x"]]
    assert baf_extensions(ex38, "co") == []
    # no complete extension: the grounded member defaults to the empty set
    assert baf_extensions(ex38, "gr") == [frozenset()]
    assert named_family(ex38, baf_extensions(ex38, "pr")) == [["x"]]


def test_empty_set_is_admissible(ex32, ex38):
    assert frozenset() in baf_extensions(ex32, "ad")
    assert frozenset() in baf_extensions(ex38, "ad")


def test_engine_against_naive_scan():
    for seed in range(30):
        frame = random_baf(5, seed)
        for sigma in SEMANTICS:
            got = family(baf_extensions(frame, sigma))
            want = family(naive_baf_extensions(frame, sigma))
            assert got == want, (seed, sigma)


def test_extensions_guard():
    frame = random_baf(26, 0)
    with pytest.raises(TooLarge):
        baf_extensions(frame, "ad")
    with pytest.raises(ValueError):
        baf_extensions(random_baf(3, 0), "wrong")


def pairs_frame(pairs):
    att = [e for i in range(pairs) for e in ((2 * i, 2 * i + 1),
                                              (2 * i + 1, 2 * i))]
    return Baf(2 * pairs, att, [])


def test_preferred_on_mutually_attacking_pairs():
    # one member of each pair: 2^pairs preferred sets among 3^pairs
    # admissible ones
    assert family(baf_extensions(pairs_frame(5), "pr")) == \
        family(naive_baf_extensions(pairs_frame(5), "pr"))
    pr = baf_extensions(pairs_frame(10), "pr")
    assert len(pr) == 1024
    assert family(pr) == family(
        frozenset(2 * i + (m >> i & 1) for i in range(10))
        for m in range(1024))


def test_maximal_masks_matches_pairwise_definition(monkeypatch):
    # short lists take the pairwise route, long ones the 2^n table
    rng = random.Random(0)
    for n, k in ((0, 1), (4, 3), (16, 300), (6, 40), (8, 200), (12, 1500),
                 (20, 2000)):
        masks = [rng.getrandbits(n) for _ in range(k)]
        want = [m for m in masks
                if not any(m != o and m & ~o == 0 for o in masks)]
        got = maximal_masks(np.array(masks, dtype=np.uint32), n)
        assert got.tolist() == want
    # each route forced in turn: below one 64-bit word of sets (n < 6), at
    # one word and above; random subsets of a few tops, some masks listed
    # twice, in no order, and the output in list order
    for n in (0, 1, 5, 6, 7, 12, 18, 24):
        tops = [rng.getrandbits(n) for _ in range(3)]
        masks = tops + [t & rng.getrandbits(n) for t in tops for _ in range(60)]
        masks += [masks[0], masks[-1], 0]
        rng.shuffle(masks)
        want = [m for m in masks
                if not any(m != o and m & ~o == 0 for o in masks)]
        for limit in (1 << 62, -(1 << 62)):
            monkeypatch.setattr("bipolaraba.masks.PAIRWISE_LIMIT", limit)
            got = maximal_masks(np.array(masks, dtype=np.uint32), n)
            assert got.tolist() == want


def test_decide(ex32, ex38):
    assert baf_decide(ex32, "cred", "pr", "y") is True
    assert baf_decide(ex32, "skept", "pr", "y") is False
    assert baf_decide(ex32, "skept", "co", "u") is True
    assert baf_decide(ex32, "ver", "co", ["x", "u", "v"]) is True
    assert baf_decide(ex32, "ver", "co", ["u", "v"]) is False
    # vacuous skeptical acceptance on an empty family
    assert baf_decide(ex38, "skept", "co", "y") is True
    assert baf_decide(ex38, "cred", "co", "y") is False


def test_decide_unknown_argument(ex32):
    with pytest.raises(KeyError):
        baf_decide(ex32, "cred", "co", "nosuch")


# ------------------------------------------------------------------ pBAF

def test_is_exhaustive():
    frame = Baf(3, [(0, 1)], [])
    pframe = Pbaf(frame, [frozenset({0}), frozenset({1}), frozenset({0, 1})], 2)
    assert is_exhaustive(pframe, [0, 1, 2])
    assert not is_exhaustive(pframe, [0, 1])   # premises of 2 are covered
    assert is_exhaustive(pframe, [0])
    assert is_exhaustive(pframe, [])


def test_exhaustiveness_restricts_admissibility():
    # argument 2 reuses the premises of 0 and 1, so {0,1} alone is out
    frame = Baf(3, [], [])
    pframe = Pbaf(frame, [frozenset({0}), frozenset({1}), frozenset({0, 1})], 2)
    assert frozenset({0, 1}) in baf_extensions(frame, "ad")
    assert frozenset({0, 1}) not in pbaf_extensions(pframe, "ad")
    assert frozenset({0, 1, 2}) in pbaf_extensions(pframe, "ad")


def test_pbaf_against_naive_scan():
    for seed in range(30):
        pframe = random_pbaf(5, seed)
        for sigma in SEMANTICS:
            got = family(pbaf_extensions(pframe, sigma))
            want = family(naive_pbaf_extensions(pframe, sigma))
            assert got == want, (seed, sigma)


def test_all_empty_premises_force_the_full_set():
    for seed in range(15):
        frame = random_baf(3, seed)
        pframe = Pbaf(frame, [frozenset()] * 3, 1)
        everyone = frozenset(range(3))
        want = [e for e in baf_extensions(frame, "ad") if e == everyone]
        assert pbaf_extensions(pframe, "ad") == want


def test_pbaf_stable_ignores_premises():
    for seed in range(10):
        pframe = random_pbaf(5, seed)
        assert (pbaf_extensions(pframe, "stb")
                == baf_extensions(pframe.baf, "stb"))


# ------------------------------------------------------------ classic AFs

def test_af_three_cycle():
    frame = Baf(3, [(0, 1), (1, 2), (2, 0)], [], ["p", "q", "r"])
    assert af_extensions(frame, "gr") == [frozenset()]
    assert af_extensions(frame, "co") == [frozenset()]
    assert af_extensions(frame, "stb") == []
    assert af_extensions(frame, "pr") == [frozenset()]


def test_af_mutual_attack():
    frame = Baf(2, [(0, 1), (1, 0)], [])
    assert family(af_extensions(frame, "pr")) == [[0], [1]]
    assert family(af_extensions(frame, "stb")) == [[0], [1]]
    assert af_extensions(frame, "gr") == [frozenset()]


def test_af_self_attacker():
    frame = Baf(1, [(0, 0)], [])
    assert af_extensions(frame, "stb") == []
    assert af_extensions(frame, "co") == [frozenset()]


def test_af_rejects_supports(ex32):
    with pytest.raises(SupportsPresent):
        af_extensions(ex32, "co")


def test_af_guard():
    with pytest.raises(TooLarge):
        af_extensions(Baf(17, [], []), "co")
    ring = Baf(17, [(i, (i + 1) % 17) for i in range(17)], [])
    with pytest.raises(TooLarge):
        baf_decide(ring, "enumerate", "co", classic=True)


def test_classic_on_a_pbaf_is_refused(ex22):
    # the Dung scan would drop the premises: {0} and {1} are admissible in
    # the BAF, but a set holding premise 0 must hold both arguments
    pbaf = Pbaf(Baf(2, [], []), [{0}, {0}], 1)
    for task, query in (("enumerate", None), ("ver", ["0"]), ("cred", "0")):
        with pytest.raises(SolverError, match="classic Dung semantics apply "
                                              "to plain BAF files"):
            baf_decide(pbaf, task, "ad", query, classic=True)
    for frame in (pbaf, ex22):  # so is an ABA framework, by either name
        with pytest.raises(SolverError, match="classic Dung semantics apply "
                                              "to plain BAF files"):
            af_extensions(frame, "ad")
    assert baf_decide(pbaf, "ver", "ad", ["0"]) is False
    assert baf_decide(pbaf, "enumerate", "ad") == [frozenset(), frozenset({0, 1})]


def test_each_wrapper_is_the_enumerate_task_on_either_graph_kind():
    # seed 19: premise-aware ad, co, gr and pr differ from the BAF's
    for frame in (random_baf(5, 19), random_pbaf(5, 19)):
        for sigma in SEMANTICS:
            want = baf_decide(frame, "enumerate", sigma)
            assert baf_extensions(frame, sigma) == want, (frame, sigma)
            assert pbaf_extensions(frame, sigma) == want, (frame, sigma)
    free = random_baf(6, 4, p_sup=0.0)
    for sigma in SEMANTICS:
        assert af_extensions(free, sigma) == \
            baf_decide(free, "enumerate", sigma, classic=True)


# --------------------------------------------------------------- text io

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


def test_parse_baf(ex32):
    assert parse_baf(EX32_TEXT) == ex32


def test_baf_round_trips(ex32, ex38):
    for frame in (ex32, ex38, random_baf(6, 4)):
        assert parse_baf(format_baf(frame)) == frame
    once = format_baf(ex32)
    assert format_baf(parse_baf(once)) == once


def test_pbaf_round_trips():
    for seed in range(5):
        pframe = random_pbaf(5, seed)
        assert parse_pbaf(format_pbaf(pframe)) == pframe


def test_parse_baf_errors():
    for text, fragment in [
            ("att 0 1\n", "missing 'p baf"),
            ("p baf 2\natt 0 5\n", "out of range"),
            ("p baf 2\natt 0\n", "expected 'att"),
            ("p baf 2\nfoo 1\n", "unknown directive"),
            ("p baf -1\n", "non-negative"),
            ("p pbaf 2 4\n", "expected 'p baf"),
            ("p baf 2\nname 0 x\nname 0 y\n", "argument 0 already has a name"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_baf(text)
        assert fragment in str(err.value)


def test_parse_pbaf_errors():
    with pytest.raises(ParseError) as err:
        parse_pbaf("p pbaf 2\n")
    assert "premise bound" in str(err.value)
    with pytest.raises(ParseError):
        parse_pbaf("p pbaf 2 3\nprem 0 5\n")
    with pytest.raises(ParseError) as err:
        parse_pbaf("p pbaf 2 3\nprem 0 1\nprem 0 2\n")
    assert "argument 0 already has premises" in str(err.value)
    assert err.value.line == 3


@pytest.mark.parametrize("name", ["b\nc", " a", "a ", "", "b\x1cc", "b\u2028c"])
def test_a_name_that_a_name_line_cannot_carry_is_refused(name):
    # "b\nc" would write a line "c"; " a" would parse back as "a"
    with pytest.raises(ValueError, match="does not fit on a 'name' line"):
        Baf(2, [], [], ["a", name])
    with pytest.raises(ValueError, match="does not fit on a 'name' line"):
        Pbaf(Baf(2, [], [], [name, "x"]), [(), ()], 0)


def test_annotation_lines_are_ignored():
    frame = parse_baf("p baf 2\n# arg 0 concludes x from a\natt 0 1\n")
    assert frame.att == [(0, 1)]
