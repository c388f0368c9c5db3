"""The factor-table join of the subset engine against brute-force filters
over all 2^n sets, and the mask-to-set conversion."""
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bipolaraba import (Baf, GenParams, Pbaf, aba_closure, aba_decide,
                        aba_extensions, attack_range, attacks, baf_closure,
                        baf_decide, baf_extensions, pbaf_extensions,
                        random_aba, random_baf)
from bipolaraba import masks
from conftest import build_ex22, build_ex32
from reference_impl import family


def members(m, labels):
    return [x for i, x in enumerate(labels) if m >> i & 1]


def to_mask(items, labels):
    return sum(1 << labels.index(x) for x in items)


def brute_force(n, range_of, closure_of):
    """Range and closure of every mask, and the filters over them."""
    every = range(1 << n)
    rng = [range_of(m) for m in every]
    cl = [closure_of(m) for m in every]
    full = (1 << n) - 1
    return {
        "range_of": rng,
        "candidate_masks": [m for m in every if not rng[m] & m and cl[m] == m],
        "conflict_free_masks": [m for m in every if not rng[m] & m],
        "closed_masks": [m for m in every if cl[m] == m],
        "stable_masks": [m for m in every
                         if cl[m] == m and rng[m] == full ^ m],
    }


def assert_engine_matches(eng, want):
    every = np.arange(len(want["range_of"]), dtype=np.uint32)
    assert eng.range_of(every).tolist() == want["range_of"]
    for name in ("candidate_masks", "conflict_free_masks", "closed_masks"):
        assert getattr(eng, name)().tolist() == want[name], name
    assert sorted(eng.stable_masks().tolist()) == want["stable_masks"]


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
    old = masks.JOIN_ENTRIES
    masks.JOIN_ENTRIES = join_entries  # 1: one high half per block
    try:
        assert_engine_matches(eng, want)
    finally:
        masks.JOIN_ENTRIES = old


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 8), st.integers(1, 14), st.integers(0, 10 ** 6))
def test_aba_join_matches_brute_force(k, n_rules, seed):
    # every bit in the low factor, a one-entry high factor
    frame = random_aba(GenParams(n_atoms=k + 3, n_assumptions=k,
                                 n_rules=n_rules, seed=seed))
    labels = frame.assumptions
    want = brute_force(
        k, lambda m: to_mask([a for a in labels
                              if attacks(frame, members(m, labels), [a])], labels),
        lambda m: to_mask(aba_closure(frame, members(m, labels)), labels))
    eng = frame.engine()
    assert (eng.lo, len(eng.rng_hi)) == (k, 1)
    assert_engine_matches(eng, want)


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


def test_unknown_semantics_is_refused_before_an_engine_is_built(monkeypatch):
    def no_engine(*args):
        raise AssertionError("engine built")

    monkeypatch.setattr(masks, "baf_engine", no_engine)
    monkeypatch.setattr(masks, "aba_engine", no_engine)
    baf, aba = build_ex32(), build_ex22()
    pbaf = Pbaf(baf, [frozenset()] * baf.n, 0)
    with pytest.raises(AssertionError, match="engine built"):
        baf_extensions(baf, "co")
    calls = [lambda: baf_extensions(baf, "nope"),
             lambda: pbaf_extensions(pbaf, "nope"),
             lambda: aba_extensions(aba, "nope"),
             lambda: baf_decide(baf, "cred", "nope", "x"),
             lambda: baf_decide(pbaf, "enumerate", "nope"),
             lambda: aba_decide(aba, "cred", "nope", "a")]
    for call in calls:
        with pytest.raises(ValueError, match="unknown semantics"):
            call()
