import inspect
import json
import time

import numpy as np
import pytest

from bipolaraba import (AbaFramework, Baf, CapExceeded, CheckReport, Cnf,
                        GenParams, TooLarge, aba_defends, arguments_for,
                        assumptions_of, baf_defends,
                        check_construction_lemmas, check_correspondence,
                        check_defense_equivalence, brute_force_sat,
                        enumerate_arguments, instantiate_baf,
                        instantiate_pbaf, is_assumption_exhaustive,
                        random_aba, random_baf, random_cnf, random_pbaf)
from bipolaraba.aba import attacker_closures
from bipolaraba import harness, masks
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


@pytest.mark.parametrize("n_vars", [1, 2])
def test_random_cnf_over_fewer_variables_than_a_clause_is_wide(n_vars):
    for seed in range(200):
        cnf = random_cnf(seed, n_vars=n_vars)
        assert cnf.n_vars == n_vars
        assert 1 <= len(cnf.clauses) <= 3
        for clause in cnf.clauses:
            assert len({abs(lit) for lit in clause}) == len(clause) <= n_vars


def test_random_cnf_refuses_no_variables():
    with pytest.raises(ValueError, match="n_vars"):
        random_cnf(0, n_vars=0)


def test_random_aba_over_one_atom():
    for seed in range(200):
        frame = random_aba(GenParams(n_atoms=1, n_assumptions=1, seed=seed))
        assert frame.atoms == frame.assumptions == ["s1"]
        assert all(body in ((), ("s1",)) for _, body in frame.rules)


def test_random_aba_refuses_rules_over_no_atoms():
    with pytest.raises(ValueError, match="n_atoms must be at least 1 to "
                                         "draw rules, got 0"):
        random_aba(GenParams(n_atoms=0))
    assert random_aba(GenParams(n_atoms=0, n_rules=0)).atoms == []


def test_random_baf_refuses_a_negative_size():
    with pytest.raises(ValueError, match="n must be at least 0, got -1"):
        random_baf(-1, 0)
    assert random_baf(0, 0).n == 0


def test_random_pbaf_refuses_a_negative_premise_bound():
    with pytest.raises(ValueError, match="premise_bound must be at least 0, "
                                         "got -1"):
        random_pbaf(3, 1, premise_bound=-1)


def test_random_pbaf_without_premise_ids():
    for seed in range(200):
        pframe = random_pbaf(4, seed, premise_bound=0)
        assert pframe.premises == [frozenset()] * 4
        assert pframe.baf == random_baf(4, seed)


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


def raised(exc_type, call, *args, **kw):
    """The message of the guard a call trips."""
    with pytest.raises(exc_type) as exc:
        call(*args, **kw)
    return str(exc.value)


def test_correspondence_skips_on_cap():
    rep = check_correspondence(build_ex22(), cap=3, label="tiny-cap")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("skip", raised(CapExceeded, enumerate_arguments, build_ex22(), 3))]
    assert rep.skipped[0].detail == "argument cap exceeded (cap 3)"


def test_correspondence_skips_on_arg_limit():
    # flat, no rules: one argument per assumption, one past the engine's
    # limit, whose message the skip carries
    asm = [f"a{i}" for i in range(25)]
    frame = AbaFramework(asm + ["x"], asm, {a: "x" for a in asm}, [])
    rep = check_correspondence(frame, label="tight")
    assert rep.cases_run == 0
    graph = instantiate_baf(frame).baf
    assert [(it.status, it.detail) for it in rep.items] == [
        ("skip", raised(TooLarge, graph.engine))]
    assert rep.skipped[0].detail == "argument count is 25, limit is 24"


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


def assert_support_maps_match(frame, graph_masks):
    """The harness's forward, exhaustive and backward maps against
    assumptions_of, is_assumption_exhaustive and arguments_for, set by
    set: forward and exhaustive on the graph masks, backward on every
    assumption set."""
    inst = instantiate_pbaf(frame)
    maps = harness._SupportMaps(inst)

    def members(mask, labels):
        return {x for i, x in enumerate(labels) if mask >> i & 1}

    args, asm = range(inst.baf.n), frame.assumptions
    ext = np.asarray(graph_masks, dtype=np.uint32)
    for m, image, exhaustive in zip(ext.tolist(), maps.forward(ext).tolist(),
                                    maps.exhaustive(ext).tolist()):
        assert members(image, asm) == assumptions_of(inst, members(m, args))
        assert exhaustive == is_assumption_exhaustive(inst, members(m, args))
    sets = np.arange(1 << len(asm), dtype=np.uint32)
    for s, back in zip(sets.tolist(), maps.backward(sets).tolist()):
        assert members(back, args) == arguments_for(inst, members(s, asm))


def test_support_maps_match_the_set_helpers():
    # every graph set of the small random instantiations, and the families
    # of the graph, where exhaustive sets are the rule
    checked = 0
    for seed in range(100):
        frame = random_aba(GenParams(seed=seed))
        try:
            n = len(enumerate_arguments(frame, 12))
        except CapExceeded:
            continue
        graph = instantiate_pbaf(frame).baf
        found = masks.families(graph, ("ad", "co", "stb"))
        assert_support_maps_match(
            frame, np.concatenate([np.arange(1 << n), *found.values()]))
        checked += 1
    assert checked >= 15


def test_support_maps_on_a_large_family():
    # the graph's ad family holds 16,417 sets
    frame = random_aba(GenParams(seed=771069229))
    ad = masks.families(instantiate_pbaf(frame).baf, ("ad",))["ad"]
    assert len(ad) == 16417
    assert_support_maps_match(frame, ad)


def _drop_graph_co(frame, out):
    if isinstance(frame, Baf):
        out["co"] = out["co"][:-1]


def _add_aba_ad(frame, out):
    if isinstance(frame, AbaFramework):
        out["ad"] = np.append(out["ad"], np.uint32(0b1111))


def _keep_middle_aba_co(frame, out):
    if isinstance(frame, AbaFramework):
        out["co"] = out["co"][1:2]


def _empty_aba_co(frame, out):
    if isinstance(frame, AbaFramework):
        out["co"] = out["co"][:0]


@pytest.mark.parametrize("frame, edit, want", [
    # the graph's co set of {a,c,d} is gone
    (build_ex22(), _drop_graph_co,
     [("baf-co-backward", "no graph extension for {a,c,d}")]),
    # {a,b,c,d} is no admissible set of ex22
    (build_ex22(), _add_aba_ad,
     [("baf-ad-backward", "no graph extension for {a,b,c,d}"),
      ("pbaf-ad-backward", "no graph extension for {a,b,c,d}")]),
    # co is {}, {s1,s3,s4} and {s2,s5}; two graph extensions map outside
    # {s1,s3,s4}, and the detail names the first in the order of their
    # sorted member tuples, not the first mask
    (random_aba(GenParams(seed=193)), _keep_middle_aba_co,
     [("baf-co-forward", "graph extension maps outside: {s2,s5}"),
      ("pbaf-co-forward", "graph extension maps outside: {s2,s5}")]),
    # no complete assumption set, yet a grounded one and complete graph
    # extensions
    (build_ex22(), _empty_aba_co,
     [("baf-co-forward", "graph extension maps outside: {a,c,d}"),
      ("baf-gr-convention", "empty-complete conventions disagree"),
      ("pbaf-co-forward", "graph extension maps outside: {a,c,d}"),
      ("pbaf-gr-convention", "empty-complete conventions disagree")])])
def test_correspondence_failure_reports(monkeypatch, frame, edit, want):
    real = harness.families

    def edited(fr, names):
        out = real(fr, names)
        edit(fr, out)
        return out

    monkeypatch.setattr(harness, "families", edited)
    rep = check_correspondence(frame, label="x")
    assert [(it.check, it.case, it.detail) for it in rep.failures] == \
        [(check, "x", detail) for check, detail in want]
    assert rep.skipped == []


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
    real = harness.closed_set_gamma

    def flipped(eng, rng):
        out = real(eng, rng).copy()
        out[6] ^= 1 << 1
        out[3] ^= 1 << 2  # the first: set {0,1} on element 2
        return out

    monkeypatch.setattr(harness, "closed_set_gamma", flipped)
    # the detail prints the flipped closed-set bit, so its verdict differs
    # from the one route's, and in an ABA frame from both routes'
    frame = build_ex32()
    rep = check_defense_equivalence(frame, label="ex32")
    via_attcl = baf_defends(frame, [0, 1], 2)
    assert via_attcl == baf_defends(frame, [0, 1], 2, mode="closed-sets")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("fail", f"S={{x,y}} a=z closed-sets={not via_attcl} "
                 f"attacker-closure={via_attcl}")]
    frame = build_ex22()
    rep = check_defense_equivalence(frame, label="ex22")
    via_attcl = aba_defends(frame, ["a", "b"], "c", mode="attacker-closure")
    assert via_attcl == aba_defends(frame, ["a", "b"], "c")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("fail", f"S={{a,b}} a=c closed-sets={not via_attcl} "
                 f"attacker-closure={via_attcl} "
                 f"minimal-derivers={via_attcl}")]


def test_defense_equivalence_kills_aba_closure_mutant(monkeypatch):
    # plant a fault in the engine's ABA defense: counter-attack the
    # minimal sets deriving a contrary, not their closures
    source = inspect.getsource(masks.aba_engine)
    old = "cl[derivers[(targets >> np.uint32(a)) & 1 == 1]].tolist()"
    new = "derivers[(targets >> np.uint32(a)) & 1 == 1].tolist()"
    assert source.count(old) == 1
    space = dict(vars(masks))
    exec(source.replace(old, new), space)
    monkeypatch.setattr(masks, "aba_engine", space["aba_engine"])
    failures = [it for seed in range(20)
                for it in check_defense_equivalence(
                    random_aba(GenParams(seed=seed))).failures]
    assert failures
    for it in failures:
        verdicts = dict(kv.split("=") for kv in it.detail.split()[2:])
        assert list(verdicts) == ["closed-sets", "attacker-closure",
                                  "minimal-derivers"]
        assert (verdicts["closed-sets"] == verdicts["attacker-closure"]
                != verdicts["minimal-derivers"])


def test_defense_equivalence_skips():
    # each skip carries the message of the guard the check's work trips
    big = random_baf(27, 0)
    rep = check_defense_equivalence(big, label="big")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("skip", raised(TooLarge, big.engine))]
    wide = random_aba(GenParams(n_atoms=30, n_assumptions=26, seed=0))
    rep = check_defense_equivalence(wide, label="wide")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("skip", raised(TooLarge, wide.engine))]
    assert rep.skipped[0].detail == "assumption count is 26, limit is 24"
    frame = build_ex22()
    rep = check_defense_equivalence(frame, label="tiny-cap", cap=3)
    assert [(it.status, it.detail) for it in rep.items] == [
        ("skip", raised(CapExceeded, attacker_closures, frame, 3))]


def test_defense_equivalence_size_guard_comes_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started")

    # the work after the engine's guard: support closures, forward
    # chaining and argument construction
    monkeypatch.setattr(masks, "single_closures", no_work)
    monkeypatch.setattr(masks, "forward_chain", no_work)
    monkeypatch.setattr(harness, "attacker_closures", no_work)
    ring = Baf(25, [(i, (i + 1) % 25) for i in range(25)], [])
    rep = check_defense_equivalence(ring, label="ring")
    assert [(it.status, it.detail) for it in rep.items] == [
        ("skip", "argument count is 25, limit is 24")]
    # the first frame has two-atom bodies, the second is atomic: each
    # builder's guard comes first
    for max_body in (2, 1):
        wide = random_aba(GenParams(n_atoms=30, n_assumptions=25,
                                    max_body=max_body, seed=0))
        assert any(len(body) == 2 for _, body in wide.rules) == (max_body == 2)
        rep = check_defense_equivalence(wide, label="wide")
        assert [(it.status, it.detail) for it in rep.items] == [
            ("skip", "assumption count is 25, limit is 24")]


def test_defense_equivalence_ring_of_16_is_quick():
    # an attack ring: every set is closed, 2^16 of them, so closed-set
    # defense by one pass per closed set would make 2^16 passes over 2^16
    # sets
    ring = Baf(16, [(i, (i + 1) % 16) for i in range(16)], [])
    start = time.perf_counter()
    rep = check_defense_equivalence(ring, label="ring")
    assert time.perf_counter() - start < 0.5
    assert [(it.status, it.detail) for it in rep.items] == [
        ("ok", f"{16 << 16} pairs")]


def test_defense_equivalence_beyond_eight_elements():
    frames = [Baf(20, [(i, (i + 1) % 20) for i in range(20)], [])]
    frames += [random_baf(20, seed) for seed in range(3)]
    assert all(f.sup for f in frames[1:])  # not every set is closed
    frames += [random_aba(GenParams(n_atoms=k + 4, n_assumptions=k,
                                    n_rules=k, seed=seed))
               for k, seed in ((12, 0), (14, 1), (16, 2))]
    for frame in frames:
        n = len(frame.assumptions) if isinstance(frame, AbaFramework) else frame.n
        rep = check_defense_equivalence(frame)
        assert [(it.status, it.detail) for it in rep.items] == [
            ("ok", f"{n << n} pairs")]


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
