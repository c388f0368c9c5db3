"""Planted faults that the checks must catch.

Each mutant replaces one text, which must occur exactly once, in one
module under src/, and names a request that must then exit nonzero:
either a CLI request (a list of arguments) or a Tier-1 test node (a
string such as "tests/test_reductions.py::test_skept_baf_shape"), which
pytest runs from the temporary directory, without its cache and with the
configured `pythonpath` emptied, so the checkout's src/ does not shadow
the copy. Every mutant is applied to its own copy of src/ in a temporary
directory outside the checkout, and the request runs against that copy.
The unmutated copy must pass every request first, so a mutant counts as
caught only by a failing check.

    python tests/mutants.py

Prints one line per mutant and ends with `N of M killed, K by Tier-1
nodes`. Exits 1 if a request fails on the unmutated copy, a mutant's
text is not found exactly once, or a mutant survives its request. This file is not
collected by pytest: it runs one request per mutant and takes seconds.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PREFILTER_TEST = ("tests/test_masks.py::"
                  "test_the_premise_prefilter_keeps_every_exhaustive_candidate")
CORE_TEST = ("tests/test_masks.py::"
             "test_the_core_keeps_exactly_the_halves_and_candidates_that_fit_it")
ATOMIC_TEST = ("tests/test_masks.py::"
               "test_the_atomic_engine_matches_the_general_one")
INCLUSION_TEST = ("tests/test_inclusions.py::"
                  "test_each_row_that_fails_fails_on_its_witness")
JOIN_TEST = "tests/test_masks.py::test_baf_join_matches_brute_force"
SUPPORT_TEST = "tests/test_harness.py::test_support_maps_match_the_set_helpers"

MUTANTS = [
    # ABA defense counter-attacks the minimal sets deriving a contrary,
    # not their closures
    ("bipolaraba/masks.py",
     "cl[derivers[(targets >> np.uint32(a)) & 1 == 1]].tolist()",
     "derivers[(targets >> np.uint32(a)) & 1 == 1].tolist()",
     ["fuzz", "--checks", "defense-eq", "--count", "200"]),
    # the row builder's low factor loses the rows of the empty set, so an
    # atomic framework's facts are lost from every set within the high
    # factor
    ("bipolaraba/masks.py",
     "    rng_lo |= np.uint32(rng0)\n    cl_lo |= np.uint32(cl0)\n",
     "",
     ATOMIC_TEST),
    # the row builder's defense counter-attacks the attacker alone, not
    # its closure: a BAF's attacking argument, an atomic framework's
    # single assumption deriving a contrary
    ("bipolaraba/masks.py",
     "for c, r in zip(cl1, rng1):",
     "for c, r in zip([1 << b for b in range(n)], rng1):",
     JOIN_TEST),
    # the row builder forgets that the empty set alone derives a contrary
    # derived from facts, and counter-attacks the closures of the single
    # assumptions deriving it too
    ("bipolaraba/masks.py",
     "[[cl0] if rng0 >> a & 1 else sorted(cs)",
     "[sorted(cs)",
     ATOMIC_TEST),
    # closed-set defense skips the subset-OR pass of the top bit
    ("bipolaraba/masks.py",
     "for i in range(len(t).bit_length() - 1):",
     "for i in range(len(t).bit_length() - 2):",
     ["fuzz", "--checks", "defense-eq", "--count", "50"]),
    # the pBAF prefilter reads a high half's covered arguments from its
    # unshifted bits, so the join drops exhaustive sets
    ("bipolaraba/masks.py",
     "_unmet(half, needs)",
     "_unmet(half >> np.uint32(shift), needs)",
     ["fuzz", "--checks", "constructions", "--count", "50"]),
    # the prefilter drops arguments with empty premises from E(half), so
    # the join prunes less; no output changes
    ("bipolaraba/masks.py",
     "np.uint32((1 << len(needs)) - 1)",
     "np.uint32(sum(1 << a for a, need in enumerate(needs) if need))",
     PREFILTER_TEST),
    # the prefilter keeps E(half) to the half's own factor, so the join
    # prunes less; no output changes
    ("bipolaraba/masks.py",
     "_unmet(half, needs))",
     "_unmet(half, needs)) & part",
     PREFILTER_TEST),
    # the join takes the grounded core when ad is asked, so ad loses
    # every admissible set that does not hold S*
    ("bipolaraba/masks.py",
     'want <= {"co", "gr", "stb"}',
     'want <= {"ad", "co", "gr", "stb"}',
     "tests/test_cli.py::test_decision_tasks_on_a_pbaf_are_pinned"),
    # the join takes the grounded core when only pr is asked, so pr loses
    # every preferred set that misses S*, and a core that attacks itself
    # leaves no pr family at all
    ("bipolaraba/masks.py",
     'want <= {"co", "gr", "stb"}',
     'want <= {"co", "gr", "pr", "stb"}',
     INCLUSION_TEST),
    # rng(S*) does not join the halves' range, so they must hold S*'s bits
    # but may meet rng(S*); a candidate holding S* is conflict-free and so
    # avoids rng(S*) anyway: no output changes, the join only tests more
    # pairs
    ("bipolaraba/masks.py",
     ", r | np.uint32(fixed[1])",
     ", r",
     CORE_TEST),
    # the join's cross test flags the bits both keys hold, not the bits
    # where they differ, so pairs that break closure or conflict-freeness
    # pass and closed conflict-free pairs fail
    ("bipolaraba/masks.py",
     "hi_key[s:s + step, None] ^ lo_key",
     "hi_key[s:s + step, None] & lo_key",
     JOIN_TEST),
    # the packed maximality route starts X[m] from S[m], some listed mask
    # contains m, not from zeros, so each listed mask counts itself as a
    # strict superset and none is kept
    ("bipolaraba/masks.py",
     "np.zeros_like(listed)",
     "listed.copy()",
     "tests/test_masks.py::"
     "test_maximal_masks_match_the_definition_on_either_route"),
    # forward chaining no longer re-queues the rules whose body a new
    # derivation grows, so a rule skipped or applied before its body was
    # complete derives too little
    ("bipolaraba/masks.py",
     "            todo.extend(u for u in users[h] if u not in todo)\n",
     "",
     "tests/test_masks.py::test_forward_chain_on_a_list_of_sets"),
    # skept-pbaf's t is not forced, so no admissible set must defend it
    # with npsi, and npsi is not skeptically accepted on an unsatisfiable
    # formula; the fuzz seeds 0-49 draw none
    ("bipolaraba/reductions.py",
     '} | {"t"}',
     "}",
     "tests/test_acceptance.py::test_criterion_8_construction_lemmas"),
    # skept-baf without the bot_i self-attack; redundant for the co
    # lemmas, so only the gadget's shape test sees it
    ("bipolaraba/reductions.py",
     '("bot", "bot"), ',
     "",
     "tests/test_reductions.py::test_skept_baf_shape"),
    # the correspondence check's backward map keeps the arguments whose
    # support meets nothing inside the assumption set, not nothing outside
    ("bipolaraba/harness.py",
     "_unmet(self.full ^ sets, self.needs)",
     "_unmet(sets, self.needs)",
     "tests/test_harness.py::test_support_maps_on_a_large_family"),
    # the forward map drops the last argument's support, so an extension
    # holding it maps to too few assumptions
    ("bipolaraba/harness.py",
     "_or_map(support)",
     "_or_map(support[:-1] + [0])",
     SUPPORT_TEST),
    # sat-baf's top/phi lemma asks some complete set, not every one, to
    # hold top and phi, so it fails where there is no complete set
    ("bipolaraba/harness.py",
     "np.all((co & top_phi) == top_phi)",
     "np.any((co & top_phi) == top_phi)",
     "tests/test_harness.py::test_construction_lemmas_on_pinned_formulas"),
    # sat-baf's clauses attack top instead of phi
    ("bipolaraba/reductions.py",
     'return _gadget(cnf, "phi", tail',
     'return _gadget(cnf, "top", tail',
     ["fuzz", "--checks", "constructions", "--count", "50"]),
]


def run(src, request):
    """The exit code of the request over the package in `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    # -B: no bytecode, so a mutant of a module's own length is not served
    # from the bytecode of the text it replaced
    if isinstance(request, str):
        argv = ["pytest", "-q", "-p", "no:cacheprovider", "-o", "pythonpath=",
                str(ROOT / request)]
    else:
        argv = ["bipolaraba.cli", *request]
    return subprocess.run([sys.executable, "-B", "-m", *argv], cwd=src.parent,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def show(request):
    return request if isinstance(request, str) else " ".join(request)


def main():
    bad = killed = by_node = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        requests = {show(m[3]): m[3] for m in MUTANTS}
        for name, request in requests.items():
            if run(src, request) != 0:
                print(f"FAIL unmutated: {name} exits nonzero")
                bad += 1
        for path, old, new, request in MUTANTS:
            target = src / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"FAIL {path}: {old!r} occurs {text.count(old)} times")
                bad += 1
                continue
            target.write_text(text.replace(old, new))
            code = run(src, request)
            target.write_text(text)
            status = "killed" if code != 0 else "SURVIVED"
            print(f"{status:<9}{path}: {old!r} -> {new!r}  "
                  f"({show(request)}, exit {code})")
            bad += code == 0
            killed += code != 0
            by_node += code != 0 and isinstance(request, str)
    print(f"{killed} of {len(MUTANTS)} killed, {by_node} by Tier-1 nodes")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
