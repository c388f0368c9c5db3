"""Randomized properties linking the fast engines, the naive scans and the
independent AF implementation."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from bipolaraba import (AbaFramework, Baf, Cnf, GenParams, ParseError, Pbaf,
                        aba_closure, aba_decide,
                        aba_extensions, af_extensions, baf_closure, baf_decide,
                        baf_defends, baf_extensions, check_defense_equivalence,
                        enumerate_arguments,
                        format_aba, format_baf, format_dimacs, format_pbaf,
                        is_exhaustive, parse_aba, parse_baf, parse_dimacs,
                        parse_pbaf, pbaf_extensions, random_aba, random_baf,
                        random_pbaf)
from bipolaraba.cli import load_framework
from bipolaraba.masks import or_table, single_closures
from reference_impl import (family, naive_aba_extensions, naive_arguments,
                            naive_baf_extensions, naive_pbaf_extensions,
                            powerset)

SEMANTICS = ("cf", "ad", "co", "gr", "pr", "stb")
seeds = st.integers(0, 10 ** 6)


@st.composite
def aba_frames(draw, max_atoms=6, max_assumptions=4):
    n_atoms = draw(st.integers(1, max_atoms))
    return random_aba(GenParams(
        n_atoms=n_atoms,
        n_assumptions=draw(st.integers(0, min(max_assumptions, n_atoms))),
        n_rules=draw(st.integers(0, 8)),
        max_body=draw(st.integers(0, min(2, n_atoms))),
        seed=draw(seeds)))


@st.composite
def baf_frames(draw, max_n=6):
    return random_baf(draw(st.integers(1, max_n)), draw(seeds))


@st.composite
def pbaf_frames(draw, max_n=5):
    return random_pbaf(draw(st.integers(1, max_n)), draw(seeds))


@st.composite
def cnfs(draw):
    n = draw(st.integers(1, 5))
    clauses = []
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.integers(1, 3))
        picks = draw(st.lists(st.integers(1, n), min_size=width,
                              max_size=width))
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in picks))
    return Cnf(n, clauses)


@st.composite
def rule_frames(draw, max_atoms=6, max_assumptions=3):
    """Frameworks with facts and with rule bodies that may repeat an atom,
    which `random_aba` never draws."""
    atoms = [f"s{i}" for i in range(1, draw(st.integers(1, max_atoms)) + 1)]
    k = draw(st.integers(0, min(max_assumptions, len(atoms))))
    atom = st.sampled_from(atoms)
    contrary = {a: draw(atom) for a in atoms[:k]}
    rules = draw(st.lists(st.tuples(atom, st.lists(atom, max_size=3)),
                          max_size=8))
    return AbaFramework(atoms, atoms[:k], contrary, rules)


def subset_of(draw, items):
    return frozenset(x for x in items if draw(st.booleans()))


# --------------------------------------------------------------------- ABA

@settings(deadline=None, max_examples=40)
@given(st.data(), aba_frames())
def test_aba_closure_laws(data, frame):
    small = data.draw(st.sets(st.sampled_from(frame.assumptions)),
                      label="S") if frame.assumptions else frozenset()
    big = small | (data.draw(st.sets(st.sampled_from(frame.assumptions)),
                             label="T") if frame.assumptions else frozenset())
    cl_small = aba_closure(frame, small)
    assert small <= cl_small
    assert cl_small <= aba_closure(frame, big)
    assert aba_closure(frame, cl_small) == cl_small


@settings(deadline=None, max_examples=80)
@given(st.one_of(rule_frames(), aba_frames(max_atoms=8, max_assumptions=5)))
@example(AbaFramework(["a", "p", "q"], ["a"], {"a": "p"},
                      [("p", ()), ("q", ("a", "p", "a")), ("a", ("q", "q"))]))
def test_arguments_are_the_derivation_trees_in_documented_order(frame):
    got = [(a.support, a.conclusion) for a in enumerate_arguments(frame)]
    assert got == naive_arguments(frame)


@settings(deadline=None, max_examples=30)
@given(aba_frames(max_atoms=5, max_assumptions=3))
def test_aba_engine_matches_naive_scan(frame):
    for sigma in SEMANTICS:
        assert family(aba_extensions(frame, sigma)) == \
            family(naive_aba_extensions(frame, sigma)), sigma


@settings(deadline=None, max_examples=25)
@given(aba_frames(max_atoms=5, max_assumptions=3))
def test_aba_decisions_match_naive_families(frame):
    for sigma in ("ad", "co", "pr", "stb"):
        exts = naive_aba_extensions(frame, sigma)
        for a in frame.assumptions:
            assert aba_decide(frame, "cred", sigma, a) == \
                any(a in e for e in exts)
            assert aba_decide(frame, "skept", sigma, a) == \
                all(a in e for e in exts)


# --------------------------------------------------------------------- BAF

@settings(deadline=None, max_examples=50)
@given(st.data(), baf_frames())
def test_baf_closure_laws(data, frame):
    every = range(frame.n)
    s = subset_of(data.draw, every)
    t = subset_of(data.draw, every)
    cl_s = baf_closure(frame, s)
    assert s <= cl_s
    assert baf_closure(frame, cl_s) == cl_s
    assert baf_closure(frame, s | t) == cl_s | baf_closure(frame, t)


@settings(deadline=None, max_examples=30)
@given(baf_frames())
def test_baf_engine_matches_naive_scan(frame):
    for sigma in SEMANTICS:
        assert family(baf_extensions(frame, sigma)) == \
            family(naive_baf_extensions(frame, sigma)), sigma


@settings(deadline=None, max_examples=50)
@given(baf_frames(max_n=7))
def test_baf_structural_facts(frame):
    ad = baf_extensions(frame, "ad")
    assert frozenset() in ad
    co = baf_extensions(frame, "co")
    for e in baf_extensions(frame, "stb"):
        assert e in co
    pr = baf_extensions(frame, "pr")
    for e in pr:
        assert e in ad
        assert not any(e < other for other in ad)
    for e in ad:
        assert all(baf_defends(frame, e, a) for a in e)


@settings(deadline=None, max_examples=40)
@given(baf_frames(max_n=7))
def test_defense_notions_agree(frame):
    assert check_defense_equivalence(frame).failures == []


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 7), seeds)
def test_support_free_degenerates_to_dung(n, seed):
    frame = random_baf(n, seed, p_sup=0.0)
    assert not frame.sup
    for sigma in SEMANTICS:
        assert baf_extensions(frame, sigma) == af_extensions(frame, sigma), sigma


# -------------------------------------------------------------------- pBAF

@settings(deadline=None, max_examples=30)
@given(pbaf_frames())
def test_pbaf_engine_matches_naive_scan(pframe):
    for sigma in SEMANTICS:
        assert family(pbaf_extensions(pframe, sigma)) == \
            family(naive_pbaf_extensions(pframe, sigma)), sigma


@settings(deadline=None, max_examples=40)
@given(pbaf_frames(max_n=6))
def test_pbaf_admissible_sets_are_exhaustive(pframe):
    for e in pbaf_extensions(pframe, "ad"):
        assert is_exhaustive(pframe, e)
        assert e in baf_extensions(pframe.baf, "ad")


@settings(deadline=None, max_examples=30)
@given(baf_frames(max_n=6))
def test_blank_premises_leave_only_the_full_set(frame):
    pframe = Pbaf(frame, [frozenset()] * frame.n, 1)
    everyone = frozenset(range(frame.n))
    assert pbaf_extensions(pframe, "ad") == \
        [e for e in baf_extensions(frame, "ad") if e == everyone]


@settings(deadline=None, max_examples=30)
@given(pbaf_frames())
def test_premises_do_not_touch_cf_and_stb(pframe):
    for sigma in ("cf", "stb"):
        assert pbaf_extensions(pframe, sigma) == \
            baf_extensions(pframe.baf, sigma)


# ------------------------------------------------------------- mask tables

@settings(deadline=None, max_examples=30)
@given(st.data())
def test_or_table_unions_rows(data):
    # several row lists stacked, filled in one pass: each list's table is
    # the one it gets alone
    n = data.draw(st.integers(0, 8))
    stacked = np.array([[data.draw(st.integers(0, 2 ** 16 - 1))
                         for _ in range(n)]
                        for _ in range(data.draw(st.integers(1, 3)))],
                       dtype=np.uint32)
    tables = or_table(n, stacked)
    assert tables.shape == (len(stacked), 1 << n)
    for rows, table in zip(stacked, tables):
        assert np.array_equal(or_table(n, rows), table)
        for m in (0, (1 << n) - 1, data.draw(st.integers(0, (1 << n) - 1))):
            want = 0
            for i in range(n):
                if m >> i & 1:
                    want |= int(rows[i])
            assert int(table[m]) == want


@settings(deadline=None, max_examples=30)
@given(baf_frames())
def test_single_closures_match_public_closure(frame):
    table = single_closures(frame.n, frame.sup)
    for i in range(frame.n):
        want = sum(1 << x for x in baf_closure(frame, {i}))
        assert int(table[i]) == want


# -------------------------------------------------------------- round trips

@settings(deadline=None, max_examples=40)
@given(cnfs())
def test_dimacs_round_trip(cnf):
    assert parse_dimacs(format_dimacs(cnf)) == cnf


@settings(deadline=None, max_examples=30)
@given(aba_frames())
def test_aba_text_round_trip(frame):
    assert parse_aba(format_aba(frame)) == frame


@settings(deadline=None, max_examples=30)
@given(baf_frames(max_n=8))
def test_baf_text_round_trip(frame):
    assert parse_baf(format_baf(frame)) == frame


@settings(deadline=None, max_examples=30)
@given(pbaf_frames(max_n=8))
def test_pbaf_text_round_trip(pframe):
    assert parse_pbaf(format_pbaf(pframe)) == pframe


def refused_or_round_trips(build, parse, fmt):
    try:
        frame = build()
    except ValueError:
        return False
    assert parse(fmt(frame)) == frame
    return True


# any text, and text made mostly of whitespace and line boundaries
names_text = st.text(max_size=4) | st.text(" \t\n\r\x0b\x0c\x1c\x85\u2028ab",
                                            max_size=4)


@settings(deadline=None, max_examples=60)
@given(st.lists(names_text, min_size=1, max_size=5, unique=True), seeds)
@example(["a", "b\nc"], 0)
@example(["a", " a"], 0)
@example(["x", "y\u2028z", ""], 1)
def test_a_name_is_refused_or_carried_back_unchanged(names, seed):
    n = len(names)
    base = random_pbaf(n, seed)

    def graph():
        return Baf(n, base.baf.att, base.baf.sup, names)

    kept = refused_or_round_trips(graph, parse_baf, format_baf)
    assert refused_or_round_trips(
        lambda: Pbaf(graph(), base.premises, base.premise_bound),
        parse_pbaf, format_pbaf) == kept
    aba = random_aba(GenParams(n_atoms=n, n_assumptions=min(n, 3),
                               max_body=min(n, 2), seed=seed))
    rename = dict(zip(aba.atoms, names))
    assert refused_or_round_trips(
        lambda: AbaFramework(
            names, [rename[a] for a in aba.assumptions],
            {rename[a]: rename[c] for a, c in aba.contrary.items()},
            [(rename[h], [rename[b] for b in body]) for h, body in aba.rules]),
        parse_aba, format_aba) == kept


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def noisy(text, draw):
    """`text` with blank lines, comments and 'arg' annotations put before
    and between its lines."""
    junk = st.sampled_from(["", "   ", "# note", "#", "arg 0 concludes x from -"])
    out = []
    for line in text.splitlines():
        out += draw(st.lists(junk, max_size=2)) + [line]
    return "\n".join(out + draw(st.lists(junk, max_size=2))) + "\n"


@settings(deadline=None, max_examples=40)
@given(st.data(), baf_frames(), pbaf_frames(), aba_frames())
def test_detection_then_parsing_equals_the_direct_parser(data, baf, pbaf, aba):
    for frame, fmt, parse in ((baf, format_baf, parse_baf),
                              (pbaf, format_pbaf, parse_pbaf),
                              (aba, format_aba, parse_aba)):
        text = noisy(fmt(frame), data.draw)
        got = outcome(lambda t: load_framework(t)[1], text)
        assert got == outcome(parse, text)
        # an ABA file has no 'arg' lines: there both refuse them alike
        if "arg" not in text or parse is not parse_aba:
            assert got == frame


# ---------------------------------------------------------------- decisions

def assert_decisions(decide, exts, items):
    """cred and skept of every item and ver of every set of items against
    a reference family."""
    for a in items:
        assert decide("cred", a) == any(a in e for e in exts), ("cred", a)
        assert decide("skept", a) == all(a in e for e in exts), ("skept", a)
    for s in powerset(items):
        assert decide("ver", s) == (frozenset(s) in exts), ("ver", s)


@settings(deadline=None, max_examples=25)
@given(aba_frames(max_atoms=5, max_assumptions=3))
def test_aba_tasks_match_naive_families(frame):
    for sigma in SEMANTICS:
        assert_decisions(lambda task, q: aba_decide(frame, task, sigma, q),
                         naive_aba_extensions(frame, sigma), frame.assumptions)


@settings(deadline=None, max_examples=25)
@given(baf_frames(max_n=5))
def test_baf_decisions_match_naive_families(frame):
    for sigma in SEMANTICS:
        assert_decisions(lambda task, q: baf_decide(frame, task, sigma, q),
                         naive_baf_extensions(frame, sigma), range(frame.n))


@settings(deadline=None, max_examples=25)
@given(pbaf_frames(max_n=5))
def test_pbaf_decisions_match_naive_families(pframe):
    for sigma in SEMANTICS:
        assert_decisions(lambda task, q: baf_decide(pframe, task, sigma, q),
                         naive_pbaf_extensions(pframe, sigma),
                         range(pframe.baf.n))


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 5), seeds)
def test_classic_decisions_match_naive_families(n, seed):
    frame = random_baf(n, seed, p_sup=0.0)
    for sigma in SEMANTICS:
        assert_decisions(
            lambda task, q: baf_decide(frame, task, sigma, q, classic=True),
            naive_baf_extensions(frame, sigma), range(n))
