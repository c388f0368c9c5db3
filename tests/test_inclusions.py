"""What the semantics promise: one table of inclusions per frame kind.

A row relates the families of one frame to each other, or to the grounded
core S* of `SubsetEngine.grounded_core` and its range. For each kind (BAF,
pBAF, ABA) a row either holds on every frame, checked here on the
hypothesis corpora and the 24-argument gadgets, or fails on a committed
witness, whose families are written out below and checked against
`reference_impl`. Each restriction that `masks.families` puts on its join
names the row it rests on. Results of Dung's semantics need not carry
over to closed-set semantics (Bondarenko, Dung, Kowalski & Toni, AIJ 93,
1997): here a preferred extension need not be complete.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from bipolaraba import AbaFramework, GenParams, Pbaf, masks, random_aba
from bipolaraba import random_baf, random_pbaf
from reference_impl import (family, naive_aba_extensions,
                            naive_baf_extensions, naive_pbaf_extensions)
from test_masks import GADGETS_24, gadget_24, pbafs, reference_core, to_mask
from test_properties import aba_frames, baf_frames, pbaf_frames


def within(small, big):
    return lambda f: f[small] <= f[big]


# f: each semantics' family as a set of masks, S* and rng(S*) as masks
ROWS = {
    "stb ⊆ co": within("stb", "co"),
    "co ⊆ ad": within("co", "ad"),
    "ad ⊆ cf": within("ad", "cf"),
    "stb ⊆ pr": within("stb", "pr"),
    "pr ⊆ ad": within("pr", "ad"),
    "stb ⊆ ad": within("stb", "ad"),
    "pr ⊆ co": within("pr", "co"),
    "every co and stb set holds S* and avoids rng(S*)": lambda f: all(
        e & f["S*"] == f["S*"] and not e & f["rng(S*)"]
        for e in f["co"] | f["stb"]),
    "S* ⊆ every pr set": lambda f: all(e & f["S*"] == f["S*"]
                                       for e in f["pr"]),
    "gr = {S*} when co ≠ ∅": lambda f: not f["co"] or f["gr"] == {f["S*"]},
}

DUNG_LIKE = ("stb ⊆ co", "co ⊆ ad", "ad ⊆ cf", "stb ⊆ pr", "pr ⊆ ad",
             "stb ⊆ ad", "every co and stb set holds S* and avoids rng(S*)")
HOLDS = {"baf": DUNG_LIKE,
         "pbaf": ("co ⊆ ad", "ad ⊆ cf", "pr ⊆ ad",
                  "every co and stb set holds S* and avoids rng(S*)"),
         "aba": DUNG_LIKE}

# kind -> row -> (frame, the families the row reads and S*, as member
# lists); each S* witness has an S* that does not attack itself, so a pr
# set misses it not merely because no conflict-free set can hold it
WITNESSES = {
    "baf": {
        "pr ⊆ co": (random_baf(2, 3), {"pr": [[]], "co": []}),
        "S* ⊆ every pr set": (random_baf(3, 10), {
            "pr": [[0, 2], [1]], "S*": [0, 2]}),
        "gr = {S*} when co ≠ ∅": (random_baf(4, 213), {
            "co": [[1, 2, 3]], "gr": [[1, 2, 3]], "S*": [1, 3]}),
    },
    "pbaf": {
        # a pBAF's stable sets are its BAF's, and need not be exhaustive
        "stb ⊆ co": (random_pbaf(2, 8), {"stb": [[1]], "co": []}),
        "stb ⊆ pr": (random_pbaf(2, 8), {"stb": [[1]], "pr": []}),
        "stb ⊆ ad": (random_pbaf(2, 8), {"stb": [[1]], "ad": []}),
        "pr ⊆ co": (random_pbaf(2, 3), {"pr": [[]], "co": []}),
        "S* ⊆ every pr set": (random_pbaf(2, 51), {"pr": [[]], "S*": [1]}),
        "gr = {S*} when co ≠ ∅": (random_pbaf(2, 26), {
            "co": [[1]], "gr": [[1]], "S*": []}),
    },
    "aba": {
        "pr ⊆ co": (random_aba(GenParams(seed=0)), {
            "pr": [["s1", "s4"]], "co": [[]]}),
        "S* ⊆ every pr set": (random_aba(GenParams(seed=61)), {
            "pr": [[]], "S*": ["s1", "s3"]}),
        "gr = {S*} when co ≠ ∅": (random_aba(GenParams(seed=101)), {
            "co": [["s1", "s2", "s3", "s5"]],
            "gr": [["s1", "s2", "s3", "s5"]], "S*": ["s2", "s3", "s5"]}),
    },
}


def kind_of(frame):
    """(kind, member labels, reference_impl oracle)."""
    if isinstance(frame, AbaFramework):
        return "aba", frame.assumptions, naive_aba_extensions
    if isinstance(frame, Pbaf):
        return "pbaf", list(range(frame.baf.n)), naive_pbaf_extensions
    return "baf", list(range(frame.n)), naive_baf_extensions


def engine_rows(frame):
    """The `f` of ROWS from the engine, each semantics asked alone, so
    that every restriction of `masks.families` is in play."""
    f = {s: set(masks.families(frame, (s,))[s].tolist())
         for s in masks.SEMANTICS}
    f["S*"], f["rng(S*)"] = frame.engine().grounded_core()
    return f


def assert_rows_hold(frame):
    kind = kind_of(frame)[0]
    f = engine_rows(frame)
    for row in HOLDS[kind]:
        assert ROWS[row](f), (kind, row)


def test_every_row_holds_or_has_a_witness_for_every_kind():
    for kind, holds in HOLDS.items():
        assert set(holds) | set(WITNESSES[kind]) == set(ROWS), kind
        assert not set(holds) & set(WITNESSES[kind]), kind


@settings(deadline=None, max_examples=300)
@given(st.one_of(baf_frames(max_n=8), pbaf_frames(max_n=7), pbafs(),
                 aba_frames()))
def test_the_rows_that_hold_hold_on_the_hypothesis_corpora(frame):
    assert_rows_hold(frame)


@pytest.mark.parametrize("kind", GADGETS_24)
def test_the_rows_that_hold_hold_on_the_24_argument_gadgets(kind):
    for seed in range(4):
        assert_rows_hold(gadget_24(kind, random.Random(seed)))


def test_each_row_that_fails_fails_on_its_witness():
    for kind, rows in WITNESSES.items():
        for row, (frame, written) in rows.items():
            framed, labels, oracle = kind_of(frame)
            assert framed == kind
            engine = engine_rows(frame)
            f = {}
            for s, value in written.items():
                if s == "S*":
                    f[s] = to_mask(value, labels)
                    assert reference_core(frame, labels)[0] == f[s]
                else:
                    assert family(oracle(frame, s)) == value, (kind, row, s)
                    f[s] = {to_mask(e, labels) for e in value}
                assert engine[s] == f[s], (kind, row, s)
            assert not ROWS[row](f), (kind, row)
            if "S*" in f:
                assert not f["S*"] & engine["rng(S*)"], (kind, row)
