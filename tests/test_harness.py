import json

import pytest

from bipolaraba import (CheckReport, Cnf, GenParams, aba_defends,
                        baf_defends, check_construction_lemmas,
                        check_correspondence, check_defense_equivalence,
                        brute_force_sat, random_aba, random_baf, random_cnf,
                        random_pbaf)
from bipolaraba import harness
from bipolaraba.harness import exhaustive_three_var_cnfs
from conftest import (build_ex22, build_ex32, build_ex38, build_ex44,
                      build_motivating)

FIG = Cnf(3, [(1, 2), (-1, 3), (-1, -3)])
UNSAT1 = Cnf(1, [(1,), (-1,)])


# -------------------------------------------------------------- generators

def test_random_aba_shape_and_determinism():
    frame = random_aba(GenParams(seed=3))
    assert frame.atoms == [f"s{i}" for i in range(1, 9)]
    assert frame.assumptions == frame.atoms[:5]
    assert len(frame.rules) == 10
    assert all(len(body) <= 2 for _, body in frame.rules)
    assert frame == random_aba(GenParams(seed=3))
    assert frame != random_aba(GenParams(seed=4))


def test_random_aba_without_rules_is_flat():
    frame = random_aba(GenParams(n_rules=0, seed=5))
    assert frame.rules == []
    from bipolaraba import aba_closure
    for m in range(1 << len(frame.assumptions)):
        s = frozenset(a for i, a in enumerate(frame.assumptions) if m >> i & 1)
        assert aba_closure(frame, s) == s


def test_random_aba_sweep_produces_non_flat_frameworks():
    hits = 0
    for seed in range(100):
        frame = random_aba(GenParams(n_assumptions=4, seed=seed))
        if any(head in frame.assumptions for head, _ in frame.rules):
            hits += 1
    assert hits > 0


def test_random_baf_determinism():
    assert random_baf(6, 9) == random_baf(6, 9)
    assert random_baf(6, 9) != random_baf(6, 10)
    assert all(i != j for i, j in random_baf(8, 1).sup)


def test_random_pbaf_shape():
    pframe = random_pbaf(5, 2)
    assert pframe.baf == random_baf(5, 2)
    assert len(pframe.premises) == 5
    assert all(p < pframe.premise_bound for s in pframe.premises for p in s)
    assert pframe == random_pbaf(5, 2)


def test_random_cnf_shape():
    for seed in range(20):
        cnf = random_cnf(seed)
        assert cnf.n_vars == 4
        assert 1 <= len(cnf.clauses) <= 3
        assert all(1 <= len(c) <= 3 for c in cnf.clauses)
        assert cnf == random_cnf(seed)


def test_exhaustive_three_var_cnfs():
    corpus = exhaustive_three_var_cnfs()
    assert len(corpus) == 93          # 1 + 8 + 28 + 56 clause subsets
    assert all(len(c) == 3 for cnf in corpus for c in cnf.clauses)
    seen = {tuple(cnf.clauses) for cnf in corpus}
    assert len(seen) == 93
    # three width-3 clauses can rule out at most three assignments of eight
    assert all(brute_force_sat(cnf) for cnf in corpus)


# ----------------------------------------------------------------- reports

def test_check_report_accounting():
    rep = CheckReport()
    rep.add("alpha", "case1", True, "120 pairs")
    rep.add("beta", "case1", False, "witness")
    rep.skip("gamma", "case2", "too big")
    other = CheckReport()
    other.add("delta", "case3", True)
    rep.extend(other)
    assert rep.cases_run == 3
    assert [it.check for it in rep.failures] == ["beta"]
    assert [it.check for it in rep.skipped] == ["gamma"]
    assert rep.summary() == "3 checks, 1 failures, 1 skipped"


def test_check_report_lines_and_json():
    rep = CheckReport()
    rep.add("alpha", "case1", True)
    rep.add("beta", "case1", False, "witness")
    assert rep.lines() == ["ok   alpha case1", "fail beta case1  [witness]"]
    data = json.loads(rep.dumps())
    assert data["cases_run"] == 2
    assert data["failures"] == 1
    assert data["checks"][1]["status"] == "fail"


# -------------------------------------------------------- correspondence

def test_correspondence_on_worked_examples():
    for build in (build_ex22, build_ex44, build_motivating):
        rep = check_correspondence(build(), label=build.__name__)
        assert rep.failures == []
        assert rep.skipped == []
        assert rep.cases_run > 0


def test_correspondence_item_names():
    rep = check_correspondence(build_ex22(), label="ex22")
    got = {it.check for it in rep.items}
    assert got == {
        "baf-ad-backward",
        "baf-co-forward", "baf-co-backward",
        "baf-gr-forward", "baf-gr-backward",
        "baf-stb-forward", "baf-stb-backward",
        "baf-co-stb-exhaustive",
        "pbaf-ad-forward", "pbaf-ad-backward",
        "pbaf-co-forward", "pbaf-co-backward",
        "pbaf-gr-forward", "pbaf-gr-backward",
        "pbaf-pr-forward", "pbaf-pr-backward",
        "pbaf-stb-forward", "pbaf-stb-backward",
        "single-argument-closure",
    }


def test_correspondence_grounded_convention_case():
    # no complete assumption set here, so the grounded comparison switches
    # to checking that both sides fall back to the empty member
    rep = check_correspondence(build_ex44(), label="ex44")
    got = {it.check for it in rep.items}
    assert "baf-gr-convention" in got
    assert "pbaf-gr-convention" in got
    assert "baf-gr-forward" not in got
    assert rep.failures == []


def test_correspondence_targets_filter():
    rep = check_correspondence(build_ex22(), targets=("baf",))
    got = {it.check for it in rep.items}
    assert "baf-ad-backward" in got
    assert not any(name.startswith("pbaf-") for name in got)


def test_correspondence_semantics_filter():
    rep = check_correspondence(build_ex22(), semantics="co")
    got = {it.check for it in rep.items}
    assert got == {"baf-co-forward", "baf-co-backward",
                   "baf-co-stb-exhaustive",
                   "pbaf-co-forward", "pbaf-co-backward",
                   "single-argument-closure"}
    assert rep.failures == []
    rep = check_correspondence(build_ex44(), semantics="gr")
    assert {"baf-gr-convention", "pbaf-gr-convention"} <= \
        {it.check for it in rep.items}
    assert rep.failures == []


def test_correspondence_skips_on_cap():
    rep = check_correspondence(build_ex22(), cap=3, label="tiny-cap")
    assert rep.cases_run == 0
    assert len(rep.skipped) == 1
    assert "cap 3 exceeded" in rep.skipped[0].detail


def test_correspondence_skips_on_arg_limit():
    rep = check_correspondence(build_ex22(), arg_limit=5, label="tight")
    assert rep.cases_run == 0
    assert "9 arguments" in rep.skipped[0].detail


def test_correspondence_fuzz_batch():
    failures = []
    ran = 0
    for seed in range(25):
        rep = check_correspondence(random_aba(GenParams(seed=seed)),
                                   label=f"seed{seed}")
        failures += rep.failures
        ran += rep.cases_run
    assert failures == []
    assert ran > 100


# ------------------------------------------------------ defense equivalence

def test_defense_equivalence_baf():
    rep = check_defense_equivalence(build_ex32(), label="ex32")
    assert rep.failures == []
    assert rep.items[0].detail == "160 pairs"   # 2^5 sets, 5 arguments
    assert check_defense_equivalence(build_ex38()).failures == []
    support_free = random_baf(6, 0, p_sup=0.0)
    assert check_defense_equivalence(support_free).failures == []
    for seed in range(20):
        rep = check_defense_equivalence(random_baf(6, seed))
        assert rep.failures == []


def test_defense_equivalence_aba():
    rep = check_defense_equivalence(build_ex22(), label="ex22")
    assert rep.failures == []
    assert rep.items[0].detail == "64 pairs"    # 2^4 sets, 4 assumptions
    for seed in range(10):
        rep = check_defense_equivalence(random_aba(GenParams(seed=seed)))
        assert rep.failures == []


def test_defense_equivalence_reports_first_mismatch(monkeypatch):
    real = harness._not_defended

    def flipped(rng, closed_masks):
        out = real(rng, closed_masks).copy()
        out[6] ^= 1 << 1
        out[3] ^= 1 << 2  # the first: set {0,1} on element 2
        return out

    monkeypatch.setattr(harness, "_not_defended", flipped)
    frame = build_ex32()
    rep = check_defense_equivalence(frame, label="ex32")
    via_attcl = baf_defends(frame, [0, 1], 2)
    via_closed = baf_defends(frame, [0, 1], 2, mode="closed-sets")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("fail", f"E=[0, 1] a=2 attacker-closure={via_attcl} "
                 f"closed-sets={via_closed}")]
    frame = build_ex22()
    rep = check_defense_equivalence(frame, label="ex22")
    via_closed = aba_defends(frame, ["a", "b"], "c")
    via_attcl = aba_defends(frame, ["a", "b"], "c", mode="attacker-closure")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("fail", f"S={{a,b}} a=c closed-sets={via_closed} "
                 f"attacker-closure={via_attcl}")]


def test_defense_equivalence_skips():
    rep = check_defense_equivalence(random_baf(27, 0), label="big")
    assert rep.skipped and rep.cases_run == 0
    wide = random_aba(GenParams(n_atoms=10, n_assumptions=9, seed=0))
    rep = check_defense_equivalence(wide, label="wide")
    assert rep.skipped and "9 assumptions" in rep.skipped[0].detail


# ------------------------------------------------------------ constructions

def test_construction_lemmas_on_pinned_formulas():
    for cnf, label in ((FIG, "fig"), (UNSAT1, "unsat1")):
        rep = check_construction_lemmas(cnf, label=label)
        assert rep.failures == []
        assert rep.skipped == []
        got = {it.check for it in rep.items}
        assert got == {
            "sat-baf-nonempty-iff-sat", "sat-baf-top-phi",
            "gr-baf-grounded",
            "skept-baf-count", "skept-baf-npsi-iff-unsat", "skept-baf-shape",
            "skept-pbaf-admissible-exist", "skept-pbaf-npsi-iff-unsat",
        }


def test_construction_lemmas_fuzz():
    for seed in range(15):
        rep = check_construction_lemmas(random_cnf(seed), label=f"seed{seed}")
        assert rep.failures == [], rep.lines()


def test_construction_lemmas_skip_oversized():
    rep = check_construction_lemmas(Cnf(25, [(1,)]), label="big")
    assert rep.cases_run == 0
    assert rep.skipped[0].check == "constructions"
