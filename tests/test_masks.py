"""The factor-table join of the subset engine against brute-force filters
over all 2^n sets, forward chaining against the reference theory, and the
mask-to-set conversion and rendering."""
import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bipolaraba import (AbaFramework, Baf, Cnf, GenParams, Pbaf, aba_closure,
                        aba_decide, aba_extensions, attack_range, baf_closure,
                        baf_decide, baf_extensions, construct_gr_baf,
                        construct_sat_baf, construct_skept_baf,
                        construct_skept_pbaf, instantiate_pbaf,
                        pbaf_extensions, random_aba, random_baf, random_pbaf)
from bipolaraba import (NotAnAssumption, cli, format_aba, format_baf,
                        format_pbaf, masks)
from bipolaraba.aba import attacker_closures
from conftest import build_ex22, build_ex32, build_ex44
from reference_impl import (aba_att, aba_cl, aba_defends, aba_theory, baf_cl,
                            baf_rng, family, naive_aba_extensions,
                            naive_baf_extensions, naive_gamma,
                            naive_pbaf_extensions)


def members(m, labels):
    return [x for i, x in enumerate(labels) if m >> i & 1]


def to_mask(items, labels):
    return sum(1 << labels.index(x) for x in items)


def defended_by_definition(n, rng, cl):
    """Defense by the definition, of every mask at once: S leaves a
    undefended iff some closed set T with a in rng[T] misses rng[S], that
    is lies within full ^ rng[S]. One subset-OR pass over F[T] = rng[T],
    T closed, gives the OR of rng[T] over the closed T within each mask."""
    full = (1 << n) - 1
    rng, cl = np.array(rng, dtype=np.uint32), np.array(cl, dtype=np.uint32)
    f = np.where(cl == np.arange(1 << n), rng, 0).astype(np.uint32)
    for i in range(n):
        v = f.reshape(-1, 2, 1 << i)
        v[:, 1] |= v[:, 0]
    return (full ^ f[full ^ rng]).tolist()


def brute_force(n, range_of, closure_of):
    """Range and closure of every mask, the filters over them and the
    elements each mask defends."""
    every = range(1 << n)
    rng = [range_of(m) for m in every]
    cl = [closure_of(m) for m in every]
    full = (1 << n) - 1
    return {
        "range_of": rng,
        "gamma": defended_by_definition(n, rng, cl),
        "candidate_masks": [m for m in every if not rng[m] & m and cl[m] == m],
        "conflict_free_masks": [m for m in every if not rng[m] & m],
        "closed_masks": [m for m in every if cl[m] == m],
        "stable_masks": [m for m in every
                         if cl[m] == m and rng[m] == full ^ m],
    }


def assert_engine_matches(eng, want):
    every = np.arange(len(want["range_of"]), dtype=np.uint32)
    assert eng.range_of(every).tolist() == want["range_of"]
    # the builder's attacker closures against closed-set defense
    assert eng.gamma(every).tolist() == want["gamma"]
    for name in ("candidate_masks", "conflict_free_masks", "closed_masks"):
        assert getattr(eng, name)().tolist() == want[name], name
    assert sorted(eng.stable_masks(eng.candidate_masks()).tolist()) == \
        want["stable_masks"]


# 0 to 3, odd and even, up to 12; sparse frames have many candidates
SIZES = (0, 1, 2, 3, 4, 5, 7, 10, 11, 12)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(SIZES), st.integers(0, 10 ** 6),
       st.sampled_from([0.03, 0.12, 0.3]), st.sampled_from([1, masks.JOIN_ENTRIES]))
def test_baf_join_matches_brute_force(n, seed, p_att, join_entries):
    frame = random_baf(n, seed, p_att=p_att, p_sup=p_att / 2)
    labels = list(range(n))
    want = brute_force(
        n, lambda m: to_mask(attack_range(frame, members(m, labels)), labels),
        lambda m: to_mask(baf_closure(frame, members(m, labels)), labels))
    eng = frame.engine()
    assert eng.lo == n // 2
    assert eng.closures == [
        sorted({to_mask(baf_closure(frame, [s]), labels)
                for s, t in frame.att if t == a}) for a in range(n)]
    old = masks.JOIN_ENTRIES
    masks.JOIN_ENTRIES = join_entries  # 1: one high half per block
    try:
        assert_engine_matches(eng, want)
    finally:
        masks.JOIN_ENTRIES = old


def aba_brute_force(frame):
    labels = frame.assumptions
    return brute_force(
        len(labels),
        lambda m: to_mask([a for a in labels
                           if aba_att(frame, members(m, labels), [a])], labels),
        lambda m: to_mask(aba_cl(frame, members(m, labels)), labels))


def general_engine(frame):
    """`masks.aba_engine` of an ABA framework, whatever its rule bodies."""
    return masks.aba_engine(len(frame.assumptions), len(frame.atoms),
                            frame._rules_ix, frame._contrary_ix)


def general_families(frame, names=masks.SEMANTICS):
    """`masks.families` with every ABA engine built by `aba_engine`, the
    2^k route, atomic framework or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks, "atomic_aba_engine", masks.aba_engine)
        return masks.families(frame, names)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 8), st.integers(1, 14), st.integers(0, 10 ** 6))
def test_aba_join_matches_brute_force(k, n_rules, seed):
    # every bit in the low factor, a one-entry high factor
    frame = random_aba(GenParams(n_atoms=k + 3, n_assumptions=k,
                                 n_rules=n_rules, seed=seed))
    eng = general_engine(frame)
    assert (eng.lo, len(eng.rng_hi)) == (k, 1)
    assert_engine_matches(eng, aba_brute_force(frame))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 8), st.integers(1, 14), st.integers(0, 10 ** 6))
def test_atomic_aba_join_matches_brute_force(k, n_rules, seed):
    # rule bodies of at most one atom: engine() splits the bits in halves
    frame = random_aba(GenParams(n_atoms=k + 3, n_assumptions=k,
                                 n_rules=n_rules, max_body=1, seed=seed))
    eng = frame.engine()
    assert eng.lo == k // 2
    assert_engine_matches(eng, aba_brute_force(frame))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 14), st.integers(1, 12), st.integers(0, 40),
       st.integers(0, 10 ** 6))
@example(2, 2, 4, 3)  # a fact derives an assumption, both contraries
@example(2, 2, 4, 14)  # {s2} attacks itself and its closure is {s1, s2}
def test_the_atomic_engine_matches_the_general_one(k, extra_atoms, n_rules,
                                                   seed):
    # max_body=1 draws a fact for about half the rules
    frame = random_aba(GenParams(n_atoms=k + extra_atoms, n_assumptions=k,
                                 n_rules=n_rules, max_body=1, seed=seed))
    eng, oracle = frame.engine(), general_engine(frame)
    assert eng.lo == k // 2
    assert eng.closures == oracle.closures
    every = np.arange(1 << k, dtype=np.uint32)
    assert eng.range_of(every).tolist() == oracle.range_of(every).tolist()
    assert eng.gamma(every).tolist() == oracle.gamma(every).tolist()
    got, want = masks.families(frame, masks.SEMANTICS), general_families(frame)
    for s in masks.SEMANTICS:
        assert got[s].tolist() == want[s].tolist(), s


def baf_as_aba(baf):
    """The atomic ABA framework of a BAF: argument i is the assumption a_i
    with contrary c_i, an attack b -> a the rule c_a <- a_b and a support
    b -> a the rule a_a <- a_b."""
    asm = [f"a_{i}" for i in range(baf.n)]
    con = [f"c_{i}" for i in range(baf.n)]
    rules = ([(con[t], (asm[s],)) for s, t in baf.att]
             + [(asm[t], (asm[s],)) for s, t in baf.sup])
    return AbaFramework(asm + con, asm, dict(zip(asm, con)), rules)


# cf is left out: neither side's conflict-free sets need be closed, and a
# set that supports an attacker of its own member is conflict-free in the
# BAF only (see the next test)
TRANSLATED = ("ad", "co", "gr", "pr", "stb")


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 12), st.integers(0, 10 ** 6),
       st.sampled_from([0.05, 0.15, 0.3]))
def test_a_baf_and_its_aba_translation_have_the_same_closed_cf_sets(
        n, seed, p_att):
    # the translation attacks from the closure of a set, the BAF from the
    # set alone: its cf is within the BAF's, and the two agree on the
    # closed sets, where closure and set are one
    baf = random_baf(n, seed, p_att=p_att, p_sup=p_att / 2)
    aba = baf_as_aba(baf)
    cf = set(masks.families(baf, ("cf",))["cf"].tolist())
    closed = set(baf.engine().closed_masks().tolist())
    for eng, got in ((aba.engine(), masks.families(aba, ("cf",))),
                     (general_engine(aba), general_families(aba, ("cf",)))):
        got = set(got["cf"].tolist())
        assert got <= cf
        assert got & set(eng.closed_masks().tolist()) == cf & closed


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 16), st.integers(0, 10 ** 6),
       st.sampled_from([0.05, 0.15, 0.3]))
def test_a_baf_and_its_aba_translation_have_the_same_families(n, seed, p_att):
    baf = random_baf(n, seed, p_att=p_att, p_sup=p_att / 2)
    aba = baf_as_aba(baf)
    want = masks.families(baf, TRANSLATED)
    for got in (masks.families(aba, TRANSLATED),
                general_families(aba, TRANSLATED)):
        for s in TRANSLATED:
            assert got[s].tolist() == want[s].tolist(), s


def test_a_24_argument_baf_and_its_aba_translation_have_the_same_families():
    # 12 mutually attacking pairs and two supports: 334,611 admissible
    # sets. The 2^24 route would take seconds and 350 MB; the atomic one
    # splits the assumptions in halves as the BAF engine splits arguments
    baf = pair_pbaf(12).baf
    want = masks.families(baf, TRANSLATED)
    got = masks.families(baf_as_aba(baf), TRANSLATED)
    assert [len(want[s]) for s in TRANSLATED] == [334611, 275562, 1, 2560,
                                                  2560]
    for s in TRANSLATED:
        assert got[s].tolist() == want[s].tolist(), s


@pytest.mark.parametrize("seed", range(15))
def test_unmet_matches_the_definition(seed):
    rnd = random.Random(seed)
    n = (0, 1, 3, 8, 24)[seed % 5]
    # a few masks shared across elements, the zero mask (a contrary
    # derived from facts) among them, and empty lists
    pool = [0] + [rnd.randrange(1, 1 << n) for _ in range(5) if n]
    needs = [rnd.choices(pool, k=rnd.randint(0, 3)) for _ in range(n)]
    sets = [0, (1 << n) - 1] + [rnd.randrange(1 << n) for _ in range(200)]
    want = [sum(1 << a for a in range(n) if not all(m & c for c in needs[a]))
            for m in sets]
    for join_entries in (1, masks.JOIN_ENTRIES):  # 1: one set per block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(masks, "JOIN_ENTRIES", join_entries)
            got = masks._unmet(np.array(sets, dtype=np.uint32), needs)
        assert got.tolist() == want, join_entries


def gamma_of_every_set(frame):
    """The engine, the range of every set and its closed-set defense by
    the transform."""
    eng = frame.engine()
    rng = eng.range_of(np.arange(1 << eng.n, dtype=np.uint32))
    return eng, rng, masks.closed_set_gamma(eng, rng).tolist()


@pytest.mark.parametrize("seed", range(18))
def test_closed_set_gamma_matches_the_single_set_definition(seed):
    n = seed % 9
    frame = random_baf(n, seed, p_att=(0.1, 0.25, 0.4)[seed % 3],
                       p_sup=(0.3, 0.15, 0.05)[seed % 3])
    eng, rng, got = gamma_of_every_set(frame)
    for m in range(1 << n):
        assert [got[m] >> a & 1 for a in range(n)] == [
            masks.closed_set_defends(eng, int(rng[m]), a) for a in range(n)]


@pytest.mark.parametrize("seed", range(14))
def test_closed_set_gamma_matches_the_reference_on_aba(seed):
    k = seed % 7
    frame = random_aba(GenParams(n_atoms=k + 3, n_assumptions=k,
                                 n_rules=4 + seed % 5, seed=seed))
    labels = frame.assumptions
    _, _, got = gamma_of_every_set(frame)
    for m in range(1 << k):
        s = members(m, labels)
        assert [got[m] >> i & 1 for i in range(k)] == [
            aba_defends(frame, s, a) for a in labels]


def assert_theories(frame, sets):
    th = frame._theories(sets)
    assert th.shape == (len(frame.atoms), len(sets))
    got = [{p for p, t in zip(frame._bit_atoms, col) if t} for col in th.T]
    assert got == [aba_theory(frame, s) for s in sets]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 6), st.integers(3, 70), st.integers(0, 40),
       st.integers(0, 10 ** 6))
def test_forward_chain_on_a_list_of_sets(k, extra_atoms, n_rules, seed):
    # bodies of 0 to 3 atoms: facts, and heads that are assumptions
    frame = random_aba(GenParams(n_atoms=k + extra_atoms, n_assumptions=k,
                                 n_rules=n_rules, max_body=3, seed=seed))
    labels = frame.assumptions
    sets = [members(m, labels) for m in range(1 << k)]
    assert_theories(frame, sets)
    assert_theories(frame, sets[::-1] + sets[:3])


def test_forward_chain_pinned_cases():
    # a fact, an assumption derived from it, a chain through 70 atoms
    chain = [f"x{i}" for i in range(70)]
    rules = ([("f", ()), ("b", ("f",)), ("x0", ("a", "b"))]
             + [(y, (x,)) for x, y in zip(chain, chain[1:])])
    frame = AbaFramework(["a", "b", "f"] + chain, ["a", "b"],
                         {"a": "x69", "b": "f"}, rules)
    assert_theories(frame, [(), ("a",), ("b",), ("a", "b"), ("a",)])
    assert_theories(frame, [])
    assert [aba_closure(frame, s) for s in ((), ("a",))] == [{"b"}, {"a", "b"}]
    no_asm = AbaFramework(["p", "q"], [], {}, [("p", ()), ("q", ("p",))])
    assert_theories(no_asm, [()])
    assert_theories(no_asm, [])
    assert aba_closure(no_asm, ()) == set()
    # closure masks wider than 64 bits
    asm = [f"a{i}" for i in range(70)]
    wide = AbaFramework(["x"] + asm, asm, {a: "x" for a in asm},
                        [(y, (x,)) for x, y in zip(asm, asm[1:])]
                        + [("x", ("a0",))])
    assert attacker_closures(wide) == (((1 << 70) - 1,),) * 70


def block_baf(rng, blocks, size):
    att, sup = [], []
    for b in range(blocks):
        ids = range(b * size, (b + 1) * size)
        att += [(i, j) for i in ids for j in ids
                if i != j and rng.random() < 0.25]
        sup += [(i, j) for i in ids for j in ids
                if i != j and rng.random() < 0.1]
    return Baf(blocks * size, att, sup)


def restrict(frame, ids):
    pos = {x: i for i, x in enumerate(ids)}
    return Baf(len(ids), [(pos[s], pos[t]) for s, t in frame.att if s in pos],
               [(pos[s], pos[t]) for s, t in frame.sup if s in pos])


# seeds whose co and pr families both have several members
@pytest.mark.parametrize("seed", [1, 7, 19, 30])
def test_disjoint_blocks_give_product_families(seed):
    # 24 arguments in 4 disjoint blocks of 6: each 12-bit half of the
    # engine holds two whole blocks
    frame = block_baf(random.Random(seed), 4, 6)
    blocks = [list(range(b * 6, b * 6 + 6)) for b in range(4)]
    for sigma in ("co", "pr"):
        parts = [[frozenset(ids[i] for i in e)
                  for e in baf_extensions(restrict(frame, ids), sigma)]
                 for ids in blocks]
        want = family(frozenset().union(*combo) for combo in product(*parts))
        got = baf_extensions(frame, sigma)
        assert len(got) == len(want) > 1
        assert family(got) == want, sigma


# --------------------------------------- metamorphic relations at n = 24

def relabel(frame, perm):
    """The BAF or pBAF with argument i renamed perm[i]."""
    if isinstance(frame, Pbaf):
        premises = [None] * len(perm)
        for i, j in enumerate(perm):
            premises[j] = frame.premises[i]
        return Pbaf(relabel(frame.baf, perm), premises, frame.premise_bound)
    return Baf(frame.n, [(perm[s], perm[t]) for s, t in frame.att],
               [(perm[s], perm[t]) for s, t in frame.sup])


def moved(found, perm):
    """The masks with bit i moved to bit perm[i], in ascending order."""
    out = np.zeros_like(found)
    for i, j in enumerate(perm):
        out |= (found >> np.uint32(i) & np.uint32(1)) << np.uint32(j)
    return np.sort(out)


def metamorphic_frame(n, seed):
    """A BAF of n arguments: for seed 0, mutually attacking pairs as in
    `pair_pbaf`, whose co and stb families are large, and an odd last
    argument attacked by the first; else a random frame, sparse or
    dense."""
    if seed == 0:
        pair = pair_pbaf(n // 2).baf
        return Baf(n, pair.att + [(0, n - 1)] * (n % 2), pair.sup)
    p_att = (0.05, 0.1, 0.25)[seed % 3]
    return random_baf(n, seed, p_att=p_att, p_sup=p_att / 2)


@pytest.mark.parametrize("seed", range(4))
def test_relabelling_maps_every_family_one_to_one(seed):
    # a random permutation moves bits across the factor split, so the join
    # pairs other halves; no oracle reaches 24 arguments
    perm = random.Random(seed).sample(range(24), 24)
    assert any((i < 12) != (j < 12) for i, j in enumerate(perm))
    baf = metamorphic_frame(24, seed)
    # without arguments of empty premises, which every exhaustive set
    # must hold, a random pBAF keeps a nonempty ad family
    pbaf = (pair_pbaf(12) if seed == 0 else
            random_pbaf(24, seed, p_empty=0, p_att=0.05))
    for frame in (baf, pbaf):
        want = masks.families(frame, masks.SEMANTICS)
        got = masks.families(relabel(frame, perm), masks.SEMANTICS)
        for s in masks.SEMANTICS:
            assert np.array_equal(np.sort(got[s]), moved(want[s], perm)), s


@pytest.mark.parametrize("seed", range(4))
def test_an_isolated_argument_joins_every_extension(seed):
    # x, unattacked and unsupported, is defended by every set and attacks
    # nothing: co, pr and stb sets gain it, cf and ad sets come with and
    # without it, and gr, the meet of co, gains it unless co is empty
    frame = metamorphic_frame(23, seed)
    want = masks.families(frame, masks.SEMANTICS)
    got = masks.families(Baf(24, frame.att, frame.sup), masks.SEMANTICS)
    x = np.uint32(1 << 23)
    for s in ("co", "pr", "stb"):
        assert np.array_equal(np.sort(got[s]), np.sort(want[s] | x)), s
    for s in ("cf", "ad"):
        both = np.concatenate([want[s], want[s] | x])
        assert np.array_equal(np.sort(got[s]), np.sort(both)), s
    gr = want["gr"] | x if len(want["co"]) else want["gr"]
    assert got["gr"].tolist() == gr.tolist()


def test_attack_free_frame_has_every_conflict_free_set(monkeypatch):
    monkeypatch.setattr(masks, "JOIN_ENTRIES", 1 << 10)  # 64 blocks of 4 x 256
    cf = baf_extensions(Baf(16, [], []), "cf")
    assert len(cf) == 1 << 16
    assert set(cf) == {frozenset(members(m, range(16))) for m in range(1 << 16)}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=60))))
def test_mask_sets_order_by_sorted_member_tuples(case):
    n, found = case
    labels = [f"x{i}" for i in range(n)]
    got = masks.mask_sets(sorted(found, reverse=True), labels)
    want = sorted(found, key=lambda m: tuple(i for i in range(n) if m >> i & 1))
    assert got == [frozenset(members(m, labels)) for m in want]


# labels that JSON escapes or that look like list syntax
ESCAPED = ['"q"', "back\\slash", "\u00e9", "\u2603", "[x]", "a,b", "", " "]


@st.composite
def rendered_families(draw):
    """(masks, labels, order): up to 3,000 masks over n <= 24 bits, either
    random or every subset of a few bits over a random base, so halves are
    rare or widely shared; labels with escapes; order None or a
    permutation."""
    n = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        found = rng.integers(0, 1 << n, draw(st.integers(0, 3000)))
    else:
        found = np.array([rng.integers(0, 1 << n)])
        for b in rng.permutation(n)[:draw(st.integers(0, min(n, 11)))]:
            found = np.concatenate([found & ~(1 << b), found | 1 << b])
    found = rng.permutation(np.unique(found)).astype(np.uint32)
    labels = draw(st.lists(st.one_of(st.sampled_from(ESCAPED), st.text(max_size=3)),
                           min_size=n, max_size=n, unique=True))
    order = draw(st.one_of(st.none(), st.permutations(range(n))))
    return found, labels, order


@settings(deadline=None, max_examples=60)
@given(rendered_families())
def test_mask_text_renders_the_member_tuples(case):
    found, labels, order = case
    bit_order = range(len(labels)) if order is None else order
    # each set as its bit positions in `order`, sorted as lists: a prefix first
    spots = sorted([j for j, i in enumerate(bit_order) if m >> i & 1]
                   for m in found.tolist())
    want = [tuple(labels[bit_order[j]] for j in js) for js in spots]
    encoded = [json.dumps(x) for x in labels]
    assert ("[" + masks.mask_text(found, encoded, ", ", ", ", order) + "]"
            == json.dumps(want))
    assert (masks.mask_text(found, labels, ",", "\n", order)
            == "\n".join("[" + ",".join(m) + "]" for m in want))
    if order is None:
        assert masks.mask_sets(found, labels) == [frozenset(m) for m in want]


@st.composite
def mask_lists(draw):
    """(masks, n): up to 90 masks over n <= 24 bits, random or random
    subsets of a few random tops, some listed twice, in random order."""
    n = draw(st.integers(0, 24))
    full = (1 << n) - 1
    tops = draw(st.lists(st.integers(0, full), min_size=1, max_size=4))
    found = tops + draw(st.lists(st.one_of(
        st.integers(0, full),
        st.builds(int.__and__, st.sampled_from(tops), st.integers(0, full))),
        max_size=80))
    found += draw(st.lists(st.sampled_from(found), max_size=10))
    return draw(st.permutations(found)), n


@settings(deadline=None, max_examples=80)
@given(mask_lists(), st.sampled_from([1 << 62, -(1 << 62)]))
def test_maximal_masks_match_the_definition_on_either_route(case, limit):
    # PAIRWISE_LIMIT at either extreme forces the pairwise or the packed
    # 2^n-bit table route
    found, n = case
    want = [m for m in found if not any(m != o and m & ~o == 0 for o in found)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks, "PAIRWISE_LIMIT", limit)
        got = masks.maximal_masks(np.array(found, dtype=np.uint32), n)
    assert got.tolist() == want


def test_unknown_semantics_is_refused_before_an_engine_is_built(monkeypatch):
    def no_engine(*args):
        raise AssertionError("engine built")

    monkeypatch.setattr(masks, "baf_engine", no_engine)
    monkeypatch.setattr(masks, "aba_engine", no_engine)
    monkeypatch.setattr(masks, "atomic_aba_engine", no_engine)
    baf, aba = build_ex32(), build_ex22()
    pbaf = Pbaf(baf, [frozenset()] * baf.n, 0)
    # ex22 is atomic and ex44 is not: both builders are patched
    for extensions, frame in ((baf_extensions, baf), (aba_extensions, aba),
                              (aba_extensions, build_ex44())):
        with pytest.raises(AssertionError, match="engine built"):
            extensions(frame, "co")
    calls = [lambda: baf_extensions(baf, "nope"),
             lambda: pbaf_extensions(pbaf, "nope"),
             lambda: aba_extensions(aba, "nope"),
             lambda: baf_decide(baf, "cred", "nope", "x"),
             lambda: baf_decide(pbaf, "enumerate", "nope"),
             lambda: aba_decide(aba, "cred", "nope", "a"),
             lambda: masks.families(baf, ("co", "nope"))]
    for call in calls:
        with pytest.raises(ValueError, match="unknown semantics"):
            call()


def test_a_query_of_the_wrong_type_is_refused_before_an_engine_is_built(
        monkeypatch):
    # the only complete extension is {0, 1}: the str "10", split into the
    # items "1" and "0", would verify it
    baf = Baf(11, [(0, t) for t in range(2, 11)], [])
    pbaf = Pbaf(baf, [frozenset()] * baf.n, 0)
    aba = AbaFramework(["ab", "x"], ["ab"], {"ab": "x"}, [])
    assert baf_decide(baf, "ver", "co", ["10"]) is False
    assert baf_decide(baf, "ver", "co", ["0", "1"]) is True
    assert aba_decide(aba, "ver", "co", ["ab"]) is True

    def no_engine(*args):
        raise AssertionError("engine built")

    monkeypatch.setattr(masks, "baf_engine", no_engine)
    monkeypatch.setattr(masks, "aba_engine", no_engine)
    monkeypatch.setattr(masks, "atomic_aba_engine", no_engine)
    for frame, decide, item in ((baf, baf_decide, "10"),
                                (pbaf, baf_decide, "10"),
                                (aba, aba_decide, "ab")):
        with pytest.raises(TypeError, match="not a str"):
            decide(frame, "ver", "co", item)
        for task in ("cred", "skept"):
            with pytest.raises(TypeError, match="not a collection"):
                decide(frame, task, "co", [item])


def test_a_bad_query_item_is_refused_before_an_engine_is_built(
        monkeypatch, tmp_path, capsys):
    def no_engine(*args):
        raise AssertionError("engine built")

    monkeypatch.setattr(masks, "baf_engine", no_engine)
    monkeypatch.setattr(masks, "aba_engine", no_engine)
    monkeypatch.setattr(masks, "atomic_aba_engine", no_engine)
    baf, aba = build_ex32(), build_ex22()
    pbaf = Pbaf(baf, [frozenset()] * baf.n, 0)
    for frame in (baf, pbaf):
        with pytest.raises(KeyError, match="nosuch"):
            baf_decide(frame, "cred", "co", "nosuch")
        with pytest.raises(KeyError, match="out of range"):
            baf_decide(frame, "ver", "co", ["x", "5"])
    for task, query in (("skept", "nb"), ("ver", ["a", "nb"])):
        with pytest.raises(NotAnAssumption, match="nb"):
            aba_decide(aba, task, "co", query)
    files = {"ex32.baf": format_baf(baf), "ex32.pbaf": format_pbaf(pbaf),
             "ex22.aba": format_aba(aba)}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["solve", str(path), "--task", "cred",
                         "--query", "nosuch"]) == 1
        assert "nosuch" in capsys.readouterr().err


def pair_pbaf(pairs):
    """Mutually attacking pairs, two supports across pairs, each argument
    its own premise but the first arguments of the last two pairs, which
    share one."""
    n = 2 * pairs
    att = [(i ^ d, i ^ 1 ^ d) for i in range(0, n, 2) for d in (0, 1)]
    premises = [frozenset({i}) for i in range(n)]
    premises[n - 2] = premises[n - 4]
    return Pbaf(Baf(n, att, [(0, 2), (3, n - 2)]), premises, n)


def wide_pbaf(seed):
    """A random pBAF of up to 9 arguments with premise ids drawn from 300,
    its last argument (of three or more) holding the premises of the first
    two, so that other arguments cover them."""
    pbaf = random_pbaf(seed % 10, seed, premise_bound=300)
    premises = list(pbaf.premises)
    if len(premises) > 2:
        premises[-1] = premises[0] | premises[1]
    return Pbaf(pbaf.baf, premises, 300)


def frames_of_every_kind(seed):
    """(frame, member labels, oracle) for a random BAF, pBAF and ABA
    framework, a pBAF with premise ids up to 300 (`wide_pbaf`), and the
    premise graph of the ABA framework when it has at most 10 arguments
    (about two seeds in five)."""
    aba = random_aba(GenParams(n_atoms=6, n_assumptions=4, n_rules=7,
                               seed=seed))
    inst = instantiate_pbaf(aba)
    baf, pbaf = random_baf(seed % 9, seed), random_pbaf(seed % 9, seed)
    wide = wide_pbaf(seed)
    out = [(baf, range(baf.n), naive_baf_extensions),
           (pbaf, range(pbaf.baf.n), naive_pbaf_extensions),
           (wide, range(wide.baf.n), naive_pbaf_extensions),
           (aba, aba.assumptions, naive_aba_extensions)]
    if inst.baf.n <= 10:
        out.append((inst.pbaf, range(inst.baf.n), naive_pbaf_extensions))
    return out


def assert_families_match(frame, labels, oracle):
    got = masks.families(frame, masks.SEMANTICS)
    assert list(got) == list(masks.SEMANTICS)
    for s in masks.SEMANTICS:
        single = masks.families(frame, (s,))
        assert list(single) == [s]
        assert got[s].tolist() == single[s].tolist(), s
        assert (family(masks.mask_sets(got[s], labels))
                == family(oracle(frame, s))), s


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_families_match_single_names_and_the_oracle(seed):
    for frame, labels, oracle in frames_of_every_kind(seed):
        assert_families_match(frame, labels, oracle)
        if isinstance(frame, Pbaf):
            got = masks.families(frame, ("cf", "stb"))
            base = masks.families(frame.baf, ("stb", "cf"))
            assert {s: m.tolist() for s, m in got.items()} == \
                {s: m.tolist() for s, m in base.items()}


def test_families_on_pairs_and_on_an_empty_complete_family():
    pbaf = pair_pbaf(5)
    assert_families_match(pbaf, range(10), naive_pbaf_extensions)
    assert_families_match(pbaf.baf, range(10), naive_baf_extensions)
    # one of each pair, less those holding 0 without 2 or 3 without 8
    assert len(masks.families(pbaf.baf, ("pr",))["pr"]) == 32 - 8 - 8 + 4
    aba = build_ex44()
    for frame in (aba, instantiate_pbaf(aba).pbaf):
        got = masks.families(frame, ("gr", "co"))
        assert list(got) == ["gr", "co"]
        assert len(got["co"]) == 0 and got["gr"].tolist() == [0]
        assert masks.families(frame, ("gr",))["gr"].tolist() == [0]


def test_a_single_name_computes_only_what_it_needs(monkeypatch):
    aba = build_ex22()
    frames = (build_ex32(), pair_pbaf(3), aba, instantiate_pbaf(aba).pbaf)
    want = {(id(f), s): masks.families(f, (s,))[s].tolist()
            for f in frames for s in masks.SEMANTICS}

    def refuse(*args):
        raise AssertionError("not needed")

    def check(names):
        for frame in frames:
            for s in names:
                got = masks.families(frame, (s,))
                assert got[s].tolist() == want[id(frame), s]

    with monkeypatch.context() as m:
        m.setattr(masks, "maximal_masks", refuse)
        check(("cf", "ad", "co", "gr", "stb"))
        with pytest.raises(AssertionError, match="not needed"):
            masks.families(frames[0], ("pr",))
    monkeypatch.setattr(masks.SubsetEngine, "gamma", refuse)
    check(("cf", "stb"))
    with pytest.raises(AssertionError, match="not needed"):
        masks.families(frames[0], ("ad",))
    monkeypatch.setattr(masks.SubsetEngine, "candidate_masks", refuse)
    check(("cf",))
    with pytest.raises(AssertionError, match="not needed"):
        masks.families(frames[0], ("stb",))


def test_families_join_once_for_the_candidates_and_once_for_cf(monkeypatch):
    joins = []
    join = masks.SubsetEngine._join

    def counted(eng, conflict_free, closed, needs=None, fixed=None):
        joins.append((conflict_free, closed))
        return join(eng, conflict_free, closed, needs, fixed)

    monkeypatch.setattr(masks.SubsetEngine, "_join", counted)
    aba = random_aba(GenParams(seed=0))
    for frame in (build_ex32(), pair_pbaf(3), aba, instantiate_pbaf(aba).pbaf):
        joins.clear()
        masks.families(frame, masks.SEMANTICS)
        assert sorted(joins) == [(True, False), (True, True)]


def test_no_join_when_the_grounded_core_attacks_itself(monkeypatch):
    # 0 is unattacked, so S* holds it and the 1 that it supports and attacks
    frames = [Baf(2, [(0, 1)], [(0, 1)])]
    for seed in range(120):
        for frame in (random_baf(seed % 9, seed), random_pbaf(seed % 9, seed),
                      random_aba(GenParams(seed=seed, max_body=seed % 3))):
            core, out = frame.engine().grounded_core()
            if core & out:
                frames.append(frame)
    kinds = {type(f) for f in frames}
    assert kinds == {Baf, Pbaf, AbaFramework} and len(frames) > 20
    cases = [(names, names + ("ad",)) for names in
             (("co",), ("gr",), ("stb",), ("co", "gr", "stb"))]
    want = [masks.families(f, plain) for f in frames for _, plain in cases]
    joins = []
    monkeypatch.setattr(masks.SubsetEngine, "_join",
                        lambda *args, **kw: joins.append(args))
    got = [masks.families(f, names) for f in frames for names, _ in cases]
    assert not joins
    for g, w in zip(got, want):
        assert list(g) == [s for s in w if s != "ad"]
        for s, m in g.items():
            assert (m.dtype, m.tolist()) == (w[s].dtype, w[s].tolist())


def block_pbaf(rng):
    """`block_baf` of 4 blocks of 6, each argument with one or two
    premises, ids of arguments of its own block."""
    frame = block_baf(rng, 4, 6)
    premises = [frozenset(rng.sample(range(i - i % 6, i - i % 6 + 6),
                                     rng.randint(1, 2))) for i in range(24)]
    return Pbaf(frame, premises, 24)


# each gadget with the formula size that gives it 24 arguments
GADGETS_24 = {"sat-baf": (construct_sat_baf, 6, 10),
              "gr-baf": (construct_gr_baf, 5, 2),
              "skept-baf": (construct_skept_baf, 4, 2),
              "skept-pbaf": (construct_skept_pbaf, 4, 4)}


def gadget_24(kind, rng):
    """A gadget of 24 arguments over random clauses of one to three
    variables; skept-pbaf's d_i and t have empty premise sets."""
    build, v, c = GADGETS_24[kind]
    clauses = [tuple(x if rng.random() < 0.5 else -x
                     for x in rng.sample(range(1, v + 1), rng.randint(1, 3)))
               for _ in range(c)]
    return build(Cnf(v, clauses))


@st.composite
def pbafs(draw):
    """A random pBAF of n in SIZES, premise bounds 1 to 40 and up to half
    its premise sets empty; the premise graph of a random ABA framework,
    up to 24 arguments; or one of the two 24-argument shapes above."""
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(["random", "instantiated", "block", "skept"]))
    if kind == "random":
        return random_pbaf(draw(st.sampled_from(SIZES)), seed,
                           premise_bound=draw(st.integers(1, 40)),
                           p_empty=draw(st.sampled_from([0.0, 0.25, 0.5])),
                           p_att=draw(st.sampled_from([0.03, 0.12, 0.3])))
    if kind == "instantiated":
        inst = instantiate_pbaf(random_aba(GenParams(
            n_atoms=6, n_assumptions=4, n_rules=7, seed=seed)))
        assume(inst.baf.n <= masks.ENUM_LIMIT)
        return inst.pbaf
    rng = random.Random(seed)
    return block_pbaf(rng) if kind == "block" else gadget_24("skept-pbaf", rng)


@settings(deadline=None, max_examples=40)
@given(pbafs())
# a half whose E reaches into the other factor, so a join that keeps E(half)
# within the half's own factor prunes less here, whatever the draws
@example(random_pbaf(4, 2))
def test_the_premise_prefilter_keeps_every_exhaustive_candidate(frame):
    eng = frame.engine()
    needs = eng.premise_tables(frame.premises)
    plain = eng.candidate_masks()
    pruned = eng.candidate_masks(needs)
    exact = plain[eng.exhaustive_flags(plain, needs)]
    assert set(exact.tolist()) <= set(pruned.tolist())
    kept = pruned[eng.exhaustive_flags(pruned, needs)]
    assert kept.tolist() == exact.tolist()
    # the join keeps exactly the sets that hold E of both their halves,
    # E(m) the arguments whose every premise m holds
    lacks = [~plain & (eng.full ^ masks._unmet(half, needs))
             for half in (plain & eng.low, plain & ~eng.low)]
    assert pruned.tolist() == plain[(lacks[0] | lacks[1]) == 0].tolist()
    # asking stb alongside takes the plain join
    unpruned = masks.families(frame, masks.SEMANTICS)
    for s in ("ad", "co", "gr", "pr"):
        assert (masks.families(frame, (s,))[s].tolist()
                == unpruned[s].tolist()), s


# ------------------------------------------------------- the grounded core

CORE_KINDS = ("baf", "pbaf", "aba", "instantiated", *GADGETS_24)


def core_case(kind, seed):
    """(frame, member labels, reference_impl oracle): a random BAF or pBAF
    of up to 14 arguments, a random ABA framework of up to 4 assumptions,
    the premise graph of a random ABA framework, or a 24-argument
    gadget."""
    if kind in ("baf", "pbaf"):
        n, p_att = seed % 15, (0.05, 0.15, 0.3)[seed // 15 % 3]
        if kind == "baf":
            return (random_baf(n, seed, p_att=p_att), range(n),
                    naive_baf_extensions)
        return (random_pbaf(n, seed, p_att=p_att), range(n),
                naive_pbaf_extensions)
    if kind == "aba":
        aba = random_aba(GenParams(n_atoms=6, n_assumptions=seed % 5,
                                   n_rules=4 + seed % 7, seed=seed))
        return aba, aba.assumptions, naive_aba_extensions
    if kind == "instantiated":
        inst = instantiate_pbaf(random_aba(GenParams(
            n_atoms=6, n_assumptions=4, n_rules=7, seed=seed)))
        assume(inst.baf.n <= masks.ENUM_LIMIT)
        return inst.pbaf, range(inst.baf.n), naive_pbaf_extensions
    return gadget_24(kind, random.Random(seed)), range(24), None


def reference_core(frame, labels):
    """S* and rng(S*) as masks, by the definitions in `reference_impl`:
    S* is the least fixpoint of S -> cl(gamma(S))."""
    if isinstance(frame, AbaFramework):
        def gamma(s):
            return frozenset(a for a in labels if aba_defends(frame, s, a))

        def cl(s):
            return aba_cl(frame, s)

        def rng(s):
            return frozenset(a for a in labels if aba_att(frame, s, {a}))
    else:
        baf = frame.baf if isinstance(frame, Pbaf) else frame

        def gamma(s):
            return naive_gamma(baf, s)

        def cl(s):
            return baf_cl(baf, s)

        def rng(s):
            return baf_rng(baf, s)
    core = frozenset()
    while cl(gamma(core)) != core:
        core = cl(gamma(core))
    return to_mask(core, labels), to_mask(rng(core), labels)


def core_cases(test):
    """Run the test on `core_case` of random kinds and seeds, and always
    on four cases whose S* is not empty, three of them with a range."""
    test = given(st.sampled_from(CORE_KINDS), st.integers(0, 10 ** 6))(test)
    for kind, seed in (("sat-baf", 0), ("instantiated", 1), ("baf", 21),
                       ("aba", 24)):
        test = example(kind, seed)(test)
    return settings(deadline=None, max_examples=100)(test)


@core_cases
def test_the_grounded_core_lies_in_every_complete_and_stable_extension(
        kind, seed):
    frame, labels, oracle = core_case(kind, seed)
    labels = list(labels)
    core, out = frame.engine().grounded_core()
    if len(labels) <= 10:
        assert (core, out) == reference_core(frame, labels)
        found = [to_mask(e, labels) for s in ("co", "stb")
                 for e in oracle(frame, s)]
    else:  # asked with ad, the join is plain
        plain = masks.families(frame, ("ad", "co", "stb"))
        found = plain["co"].tolist() + plain["stb"].tolist()
    for e in found:
        assert e & core == core and not e & out


@core_cases
def test_the_core_keeps_exactly_the_halves_and_candidates_that_fit_it(
        kind, seed):
    frame = core_case(kind, seed)[0]
    eng = frame.engine()
    core, out = eng.grounded_core()
    needs = [None]
    if isinstance(frame, Pbaf):
        needs.append(eng.premise_tables(frame.premises))
    for need in needs:
        plain = eng.candidate_masks(need)
        fits = plain[((plain & core) == core) & ((plain & out) == 0)]
        assert eng.candidate_masks(need, (core, out)).tolist() == fits.tolist()
        # a candidate holding S* is conflict-free, so it avoids rng(S*)
        # anyway: only the halves show whether the join drops rng(S*).
        # S* in each half's closure and rng(S*) in its range keep a half
        # that holds S*'s bits of its factor and none of rng(S*)'s, whose
        # range misses S* and whose closure misses rng(S*) in the other
        # factor; when S* attacks itself, no half is kept
        held, barred = np.uint32(core), np.uint32(out & ~core)
        for rng, cl, shift, part in (
                (eng.rng_lo, eng.cl_lo, 0, eng.low),
                (eng.rng_hi, eng.cl_hi, eng.lo, eng.full ^ eng.low)):
            args = (rng, cl, shift, part, True, True, need)
            half, bits, key = masks._factor_halves(*args)
            other = ~part
            fit = (half & held) == (held & part)
            fit &= (half & barred) == 0
            fit &= (rng[half >> np.uint32(shift)] & held & other) == 0
            fit &= (key & other & barred) == 0
            fit &= (core & out) == 0
            want = [half, bits | ((held | barred) & other),
                    key | (held & other)]
            kept = masks._factor_halves(*args, (core, out))
            assert ([c.tolist() for c in kept]
                    == [c[fit].tolist() for c in want])


@core_cases
def test_co_gr_and_stb_alone_equal_their_families_from_the_plain_join(
        kind, seed):
    frame = core_case(kind, seed)[0]
    for names, plain in ((("co",), ("ad", "co")), (("gr",), ("ad", "gr")),
                         (("stb",), ("cf", "stb")),
                         (("co", "gr", "stb"), ("ad", "co", "gr", "stb"))):
        got, want = masks.families(frame, names), masks.families(frame, plain)
        for s in names:
            assert got[s].tolist() == want[s].tolist(), (names, s)
