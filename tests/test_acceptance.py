"""Acceptance gate: nine timed criteria covering the worked examples, the
equivalence lemmas, the correspondence theorems, the CNF gadget lemmas and
CLI determinism.

Each criterion records a single PASS/FAIL line with its runtime; conftest
prints the collected lines as a terminal summary section after the run.
"""
import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from itertools import combinations

from bipolaraba import (Cnf, GenParams, aba_closure, aba_extensions,
                        af_extensions, baf_closure, baf_extensions,
                        brute_force_sat, check_construction_lemmas,
                        check_correspondence, check_defense_equivalence,
                        format_aba, format_baf, format_dimacs, format_pbaf,
                        instantiate_baf, instantiate_pbaf, parse_aba,
                        parse_baf, parse_dimacs, parse_pbaf, pbaf_extensions,
                        random_aba, random_baf, random_cnf, random_pbaf)
from bipolaraba.cli import main as cli_main
from bipolaraba.harness import exhaustive_three_var_cnfs
from conftest import (acceptance_lines, build_ex22, build_ex32, build_ex38,
                      build_ex44, build_motivating, named_family, names_of)
from test_aba import EX22_TEXT
from test_cli import EX32_TEXT
from test_instantiate import edges, label_map_ex22, label_map_ex44

ALL_SIGMAS = ("cf", "ad", "co", "gr", "pr", "stb")


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        within = budget is None or elapsed < budget
        verdict = "PASS" if ok and within else "FAIL"
        shown = f", budget {budget:g}s" if budget is not None else ""
        acceptance_lines.append(
            f"[criterion {number}] {verdict} {description} "
            f"({elapsed:.2f}s{shown})")
    if not within:
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s")


def test_criterion_1_worked_examples():
    with criterion(1, "worked-example golden suite", budget=1.0):
        ex22 = build_ex22()
        assert frozenset({"b"}) in aba_extensions(ex22, "ad")

        ex32 = build_ex32()
        assert names_of(ex32, baf_closure(ex32, ["y"])) == ["y", "z"]
        assert named_family(ex32, baf_extensions(ex32, "co")) == \
            [["u", "v", "x"]]
        pr = named_family(ex32, baf_extensions(ex32, "pr"))
        assert ["y", "z"] in pr and ["u", "v", "x"] in pr

        ex38 = build_ex38()
        assert named_family(ex38, baf_extensions(ex38, "ad")) == [[], ["x"]]
        assert baf_extensions(ex38, "co") == []

        inst = instantiate_baf(ex22)
        assert len(inst.arguments) == 9
        ids, rev = label_map_ex22(inst)
        assert edges(rev, inst.baf.att) == sorted([
            ("A1", "A2"), ("A1", "A3"), ("A1", "b"),
            ("A2", "A1"), ("A2", "a"), ("A3", "d"),
            ("A4", "A2"), ("A4", "A3"), ("A4", "b")])
        sup = set(edges(rev, inst.baf.sup))
        assert sup == {("A1", "a"), ("A2", "b"), ("A3", "b"), ("A4", "c"),
                       ("A4", "d"), ("A5", "c"), ("A5", "d"), ("c", "d")}
        drawn = {("A1", "a"), ("A2", "b"), ("A3", "b"),
                 ("A4", "d"), ("A5", "d"), ("c", "d")}
        assert drawn <= sup
        assert frozenset({ids["A2"], ids["A3"], ids["b"]}) in \
            baf_extensions(inst.baf, "ad")

        ex44 = build_ex44()
        inst44 = instantiate_pbaf(ex44)
        ids44, _ = label_map_ex44(inst44)
        witness = frozenset({ids44["a"], ids44["b"], ids44["A1"], ids44["A2"]})
        assert witness in baf_extensions(inst44.baf, "ad")
        assert frozenset({"a", "b"}) not in aba_extensions(ex44, "ad")
        pad = pbaf_extensions(inst44.pbaf, "ad")
        assert witness not in pad
        assert frozenset({ids44["a"], ids44["A1"]}) in pad

        motivating = build_motivating()
        assert frozenset({"cc", "mr"}) in aba_extensions(motivating, "co")


def test_criterion_2_defense_equivalence_on_graphs():
    with criterion(2, "closed-set vs attacker-closure defense, "
                      "500 random BAFs", budget=60.0):
        failures = []
        ran = 0
        for seed in range(500):
            rep = check_defense_equivalence(random_baf(seed % 7 + 1, seed),
                                            label=f"seed{seed}")
            failures += rep.failures
            ran += rep.cases_run
        assert failures == []
        assert ran == 500


def test_criterion_3_defense_modes_on_aba():
    with criterion(3, "ABA defense-mode equivalence, 300 random frameworks",
                   budget=60.0):
        failures = []
        ran = 0
        for seed in range(300):
            frame = random_aba(GenParams(n_assumptions=seed % 6, seed=seed))
            rep = check_defense_equivalence(frame, label=f"seed{seed}")
            failures += rep.failures
            ran += rep.cases_run
        assert failures == []
        assert ran == 300


def test_criterion_4_support_free_degeneration():
    with criterion(4, "support-free frameworks match the independent "
                      "classic-semantics implementation, 500 cases",
                   budget=60.0):
        for seed in range(500):
            frame = random_baf(seed % 8 + 1, seed, p_sup=0.0)
            for sigma in ALL_SIGMAS:
                assert baf_extensions(frame, sigma) == \
                    af_extensions(frame, sigma), (seed, sigma)


def test_criterion_5_structural_properties():
    with criterion(5, "structural facts and closure laws, 500 random "
                      "frameworks of each kind", budget=120.0):
        for seed in range(500):
            frame = random_baf(seed % 8 + 1, seed)
            ad = baf_extensions(frame, "ad")
            assert frozenset() in ad
            co = baf_extensions(frame, "co")
            for e in baf_extensions(frame, "stb"):
                assert e in co
            maximal = [e for e in ad if not any(e < o for o in ad)]
            assert sorted(baf_extensions(frame, "pr")) == sorted(maximal)

            picks = random.Random(seed)
            s = frozenset(x for x in range(frame.n) if picks.random() < 0.4)
            t = frozenset(x for x in range(frame.n) if picks.random() < 0.4)
            cl_s = baf_closure(frame, s)
            assert s <= cl_s
            assert baf_closure(frame, cl_s) == cl_s
            assert baf_closure(frame, s | t) == cl_s | baf_closure(frame, t)

        for seed in range(500):
            frame = random_aba(GenParams(n_assumptions=seed % 6, seed=seed))
            picks = random.Random(seed)
            s = frozenset(a for a in frame.assumptions
                          if picks.random() < 0.5)
            t = s | frozenset(a for a in frame.assumptions
                              if picks.random() < 0.5)
            cl_s = aba_closure(frame, s)
            assert s <= cl_s
            assert cl_s <= aba_closure(frame, t)
            assert aba_closure(frame, cl_s) == cl_s


def correspondence_fuzz(owns):
    """The failed items whose check name `owns` accepts, over one full
    `check_correspondence` run on each of 200 random frameworks, and the
    number of frameworks on which one of those items ran."""
    failures = []
    frames_run = 0
    for seed in range(200):
        rep = check_correspondence(random_aba(GenParams(seed=seed)), cap=2000,
                                   label=f"seed{seed}")
        items = [it for it in rep.items if owns(it.check)]
        failures += [it for it in items if it.status == "fail"]
        frames_run += any(it.status != "skip" for it in items)
    return failures, frames_run


def test_criterion_6_graph_correspondence_fuzz():
    with criterion(6, "ABA vs argument graph: co/gr/stb both ways, ad "
                      "backward, 200 random frameworks", budget=300.0):
        failures, frames_run = correspondence_fuzz(
            lambda check: check.startswith("baf-")
            or check == "single-argument-closure")
        assert failures == []
        assert frames_run >= 100


def test_criterion_7_premise_graph_correspondence_fuzz():
    with criterion(7, "ABA vs premise-labelled graph: all five semantics "
                      "both ways, 200 random frameworks", budget=300.0):
        failures, frames_run = correspondence_fuzz(
            lambda check: check.startswith("pbaf-"))
        assert failures == []
        assert frames_run >= 100


def exhaustive_two_var_cnfs():
    """Every set of at most four of the eight non-tautological clauses of
    width 1 or 2 over x1, x2: 163 formulas, 72 of them unsatisfiable."""
    literals = (1, -1, 2, -2)
    universe = [(l,) for l in literals]
    universe += [(a, b) for a in (1, -1) for b in (2, -2)]
    return [Cnf(2, list(chosen)) for m in range(5)
            for chosen in combinations(universe, m)]


def test_criterion_8_construction_lemmas():
    with criterion(8, "four CNF gadgets vs brute-force SAT, exhaustive "
                      "2- and 3-variable corpora plus random and pinned "
                      "formulas", budget=300.0):
        corpus = exhaustive_two_var_cnfs() + exhaustive_three_var_cnfs()
        corpus += [random_cnf(seed) for seed in range(100)]
        corpus += [Cnf(3, [(1, 2), (-1, 3), (-1, -3)]),
                   Cnf(1, [(1,), (-1,)]),
                   Cnf(2, [(1, 2), (-1,), (-2,)]),
                   Cnf(2, [(1,), (-1,)])]
        failures = []
        ran = 0
        unsat_seen = 0
        for i, cnf in enumerate(corpus):
            rep = check_construction_lemmas(cnf, label=f"cnf{i}")
            failures += rep.failures
            ran += rep.cases_run
            if not brute_force_sat(cnf):
                unsat_seen += 1
        assert failures == []
        assert ran >= 1400          # a few oversized gadget checks may skip
        # both branches of every iff exercised: the 72 unsatisfiable
        # 2-variable formulas, three pinned ones and random_cnf seed 56
        assert unsat_seen >= 76


def test_criterion_9_round_trips_and_determinism(tmp_path):
    with criterion(9, "parse/serialize identity and byte-identical "
                      "repeated CLI runs"):
        for seed in range(50):
            aba = random_aba(GenParams(n_assumptions=seed % 6, seed=seed))
            assert parse_aba(format_aba(aba)) == aba
            baf = random_baf(seed % 8 + 1, seed)
            assert parse_baf(format_baf(baf)) == baf
            pbaf = random_pbaf(seed % 8 + 1, seed)
            assert parse_pbaf(format_pbaf(pbaf)) == pbaf
            cnf = random_cnf(seed)
            assert parse_dimacs(format_dimacs(cnf)) == cnf

        aba_path = tmp_path / "ex22.aba"
        aba_path.write_text(EX22_TEXT)
        baf_path = tmp_path / "ex32.baf"
        baf_path.write_text(EX32_TEXT)
        for argv in ((  "solve", str(aba_path), "--sigma", "pr"),
                     ("solve", str(baf_path), "--sigma", "co",
                      "--format", "json"),
                     ("translate", str(aba_path), "--target", "pbaf"),
                     ("fuzz", "--checks", "constructions", "--count", "2"),
                     ("export-dot", str(baf_path))):
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_main(list(argv))
                assert code == 0
                outs.append(buf.getvalue())
            assert outs[0] == outs[1], argv
