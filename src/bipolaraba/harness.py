"""Randomized cross-checking of the semantics against each other.

Three families of checks:

  check_correspondence       an ABA framework against its argument graph,
                             with and without premise labels
  check_defense_equivalence  the two defense notions against each other,
                             exhaustively over (set, argument) pairs
  check_construction_lemmas  the four CNF gadgets against brute-force SAT

A case that trips a size guard or the argument cap is recorded as
skipped, with the guard's message, never silently dropped.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, compress, product

import numpy as np

from .aba import AbaFramework, attacker_closures, enumerate_arguments
from .baf import Baf, Pbaf, baf_closure, baf_extensions, pbaf_extensions
from .errors import CapExceeded, TooLarge
from .instantiate import (arguments_for, assumptions_of, instantiate_pbaf,
                          is_assumption_exhaustive)
from .masks import _check_size, _unmet, closed_set_gamma, families, mask_sets
from .reductions import (Cnf, brute_force_sat, construct_gr_baf,
                         construct_sat_baf, construct_skept_baf,
                         construct_skept_pbaf)

CHECK_ARGUMENT_CAP = 2000


# -------------------------------------------------------------- generators

@dataclass
class GenParams:
    n_atoms: int = 8
    n_assumptions: int = 5
    n_rules: int = 10
    max_body: int = 2
    seed: int = 0


def random_aba(params: GenParams) -> AbaFramework:
    """Seeded random framework; heads range over all atoms, so the result
    is generally not flat."""
    if params.n_atoms < 1 and params.n_rules > 0:
        raise ValueError(f"n_atoms must be at least 1 to draw rules, "
                         f"got {params.n_atoms}")
    rng = random.Random(params.seed)
    atoms = [f"s{i}" for i in range(1, params.n_atoms + 1)]
    k = min(params.n_assumptions, params.n_atoms)
    assumptions = atoms[:k]
    contrary = {a: rng.choice(atoms) for a in assumptions}
    rules = []
    for _ in range(params.n_rules):
        head = rng.choice(atoms)
        width = rng.randint(0, params.max_body)
        body = tuple(rng.sample(atoms, min(width, len(atoms))))
        rules.append((head, body))
    return AbaFramework(atoms, assumptions, contrary, rules)


def random_baf(n, seed, p_att=0.25, p_sup=0.15) -> Baf:
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    rng = random.Random(seed)
    att = [(i, j) for i in range(n) for j in range(n) if rng.random() < p_att]
    sup = [(i, j) for i in range(n) for j in range(n)
           if i != j and rng.random() < p_sup]
    return Baf(n, att, sup)


def random_pbaf(n, seed, premise_bound=6, p_empty=0.25, **kw) -> Pbaf:
    if premise_bound < 0:
        raise ValueError(
            f"premise_bound must be at least 0, got {premise_bound}")
    rng = random.Random(seed ^ 0x5EED)
    frame = random_baf(n, seed, **kw)
    premises = []
    for _ in range(n):
        if rng.random() < p_empty:
            premises.append(frozenset())
        else:
            size = rng.randint(1, max(1, premise_bound // 2))
            premises.append(frozenset(rng.sample(range(premise_bound),
                                                 min(size, premise_bound))))
    return Pbaf(frame, premises, premise_bound)


def random_cnf(seed, n_vars=4, max_clauses=3) -> Cnf:
    if n_vars < 1:
        raise ValueError(f"n_vars must be at least 1, got {n_vars}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, n_vars + 1), min(width, n_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Cnf(n_vars, clauses)


def exhaustive_three_var_cnfs():
    """Every set of at most three distinct width-3 clauses over x1..x3."""
    universe = [tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
                for signs in product((True, False), repeat=3)]
    out = []
    for m in range(4):
        for chosen in combinations(universe, m):
            out.append(Cnf(3, list(chosen)))
    return out


# ----------------------------------------------------------------- reports

@dataclass
class CheckItem:
    check: str
    case: str
    status: str
    detail: str = ""


@dataclass
class CheckReport:
    items: list = field(default_factory=list)

    def add(self, check, case, ok, detail=""):
        self.items.append(CheckItem(check, case, "ok" if ok else "fail", detail))

    def skip(self, check, case, reason):
        self.items.append(CheckItem(check, case, "skip", reason))

    def extend(self, other):
        self.items.extend(other.items)

    @property
    def failures(self):
        return [it for it in self.items if it.status == "fail"]

    @property
    def skipped(self):
        return [it for it in self.items if it.status == "skip"]

    @property
    def cases_run(self):
        return sum(1 for it in self.items if it.status != "skip")

    def lines(self):
        out = []
        for it in self.items:
            line = f"{it.status:<5}{it.check} {it.case}".rstrip()
            if it.detail:
                line += f"  [{it.detail}]"
            out.append(line)
        return out

    def summary(self):
        return (f"{self.cases_run} checks, {len(self.failures)} failures, "
                f"{len(self.skipped)} skipped")

    def dumps(self):
        return json.dumps({
            "checks": [vars(it) for it in self.items],
            "cases_run": self.cases_run,
            "failures": len(self.failures),
            "skipped": len(self.skipped),
        }, indent=2, sort_keys=True)


# -------------------------------------------------------- correspondence

def _fmt_asm(s):
    return "{" + ",".join(sorted(s)) + "}"


def _family_sets(frame, names, labels):
    """Each named extension family of the frame as frozensets of labels."""
    return {s: mask_sets(m, labels) for s, m in families(frame, names).items()}


def check_correspondence(frame: AbaFramework, cap=CHECK_ARGUMENT_CAP,
                         label="") -> CheckReport:
    """Extensions of the framework against extensions of its argument graph.

    Attack/support graph alone: forward agreement for co/gr/stb, backward
    for ad/co/gr/stb. With premise labels: both directions for all five
    semantics. The grounded convention (empty family of complete sets
    yields the empty grounded member) is checked for consistency instead of
    being pushed through the argument mapping.
    """
    rep = CheckReport()
    names = ("ad", "co", "gr", "pr", "stb")

    def run_side(side, family, compared, forward_list):
        for sem in compared:
            if sem == "gr" and co_d_empty:
                agree = (d_family["gr"] == [frozenset()]
                         and family["gr"] == [frozenset()]
                         and not family["co"])
                rep.add(f"{side}-gr-convention", label, agree,
                        "" if agree else "empty-complete conventions disagree")
                continue
            if sem in forward_list:
                bad = [e for e in family[sem]
                       if assumptions_of(inst, e) not in d_family[sem]]
                rep.add(f"{side}-{sem}-forward", label, not bad,
                        "" if not bad
                        else f"graph extension maps outside: "
                             f"{_fmt_asm(assumptions_of(inst, bad[0]))}")
            bad = [s for s in d_family[sem]
                   if arguments_for(inst, s) not in family[sem]]
            rep.add(f"{side}-{sem}-backward", label, not bad,
                    "" if not bad else f"no graph extension for {_fmt_asm(bad[0])}")

    try:
        # the engine's own guard, before the graph is built and solved
        _check_size("argument count", len(enumerate_arguments(frame, cap)))
        inst = instantiate_pbaf(frame, cap)
        d_family = _family_sets(frame, names, frame.assumptions)
        co_d_empty = not d_family["co"]
        compared = ("ad", "co", "gr", "stb")
        family = _family_sets(inst.baf, compared, range(inst.baf.n))
        run_side("baf", family, compared, ("co", "gr", "stb"))
        exhaustive_bad = [e for sem in ("co", "stb") for e in family[sem]
                          if not is_assumption_exhaustive(inst, e)]
        rep.add("baf-co-stb-exhaustive", label, not exhaustive_bad)
        family = _family_sets(inst.pbaf, names, range(inst.baf.n))
        run_side("pbaf", family, names, names)
        th = frame._theories([a.support for a in inst.arguments])
        cl_bad = [str(a) for i, a in enumerate(inst.arguments)
                  if assumptions_of(inst, baf_closure(inst.baf, {i}))
                  != frozenset(compress(frame.assumptions, th[:, i]))]
        rep.add("single-argument-closure", label, not cl_bad,
                "" if not cl_bad else cl_bad[0])
    except (TooLarge, CapExceeded) as exc:
        rep.skip("correspondence", label, str(exc))
    return rep


# ------------------------------------------------------ defense equivalence

def check_defense_equivalence(frame, label="",
                              cap=CHECK_ARGUMENT_CAP) -> CheckReport:
    """Compare closed-set defense with attacker-closure defense on every
    (set, element) pair. Accepts a Baf, whose engine holds the attackers'
    closures, or an AbaFramework, whose attackers are the arguments that
    conclude a contrary; for it the engine's own defense, by the closures
    of the minimal sets deriving a contrary, is compared too. A failure
    names the first pair where a route disagrees and each route's verdict
    there."""
    rep = CheckReport()
    try:
        eng = frame.engine()
        if isinstance(frame, AbaFramework):
            labels = frame.assumptions
            routes = {"attacker-closure": attacker_closures(frame, cap),
                      "minimal-derivers": eng.closures}
        else:
            labels, routes = frame.names, {"attacker-closure": eng.closures}
    except (TooLarge, CapExceeded) as exc:
        rep.skip("defense-equivalence", label, str(exc))
        return rep
    rng = eng.range_of(np.arange(1 << eng.n, dtype=np.uint32))
    undefended = closed_set_gamma(eng, rng)
    undefended ^= eng.full
    for route, closures in routes.items():
        # each route's table lives only for its comparison
        bad = np.flatnonzero(_unmet(rng, closures) != undefended)
        if len(bad):
            break
    else:
        rep.add("defense-equivalence", label, True, f"{len(rng) * eng.n} pairs")
        return rep
    m = int(bad[0])
    unmet = {"closed-sets": int(undefended[m])}
    unmet.update((r, int(_unmet(rng[m:m + 1], c)[0])) for r, c in routes.items())
    diff = unmet[route] ^ unmet["closed-sets"]
    a = (diff & -diff).bit_length() - 1
    members = ",".join(x for j, x in enumerate(labels) if m >> j & 1)
    rep.add("defense-equivalence", label, False,
            f"S={{{members}}} a={labels[a]} "
            + " ".join(f"{r}={not u >> a & 1}" for r, u in unmet.items()))
    return rep


# ------------------------------------------------------------ constructions

def check_construction_lemmas(cnf: Cnf, label="") -> CheckReport:
    """All four gadgets on one formula, against the brute-force verdict."""
    rep = CheckReport()
    try:
        sat = brute_force_sat(cnf)
    except TooLarge as exc:
        rep.skip("constructions", label, str(exc))
        return rep

    def names_of(frame, ext):
        return {frame.names[i] for i in ext}

    try:
        frame = construct_sat_baf(cnf)
        co = baf_extensions(frame, "co")
        rep.add("sat-baf-nonempty-iff-sat", label, bool(co) == sat,
                f"sat={sat} extensions={len(co)}")
        rep.add("sat-baf-top-phi", label,
                all({"top", "phi"} <= names_of(frame, e) for e in co))
    except TooLarge as exc:
        rep.skip("sat-baf", label, str(exc))

    try:
        frame = construct_gr_baf(cnf)
        gr = baf_extensions(frame, "gr")
        want = {"top", "phi"} if sat else set()
        rep.add("gr-baf-grounded", label,
                len(gr) == 1 and names_of(frame, gr[0]) == want,
                f"got {sorted(names_of(frame, gr[0]))}")
    except TooLarge as exc:
        rep.skip("gr-baf", label, str(exc))

    try:
        frame = construct_skept_baf(cnf)
        co = baf_extensions(frame, "co")
        rep.add("skept-baf-count", label, len(co) == 2 ** cnf.n_vars,
                f"{len(co)} complete vs {2 ** cnf.n_vars} assignments")
        npsi = frame.resolve("npsi")
        rep.add("skept-baf-npsi-iff-unsat", label,
                all(npsi in e for e in co) == (not sat))
        shape_ok = True
        for e in co:
            got = names_of(frame, e)
            for i in range(1, cnf.n_vars + 1):
                if f"top{i}" not in got or f"d{i}" not in got:
                    shape_ok = False
                if (f"x{i}" in got) + (f"nx{i}" in got) != 1:
                    shape_ok = False
        rep.add("skept-baf-shape", label, shape_ok)
    except TooLarge as exc:
        rep.skip("skept-baf", label, str(exc))

    try:
        pframe = construct_skept_pbaf(cnf)
        ad = pbaf_extensions(pframe, "ad")
        rep.add("skept-pbaf-admissible-exist", label,
                bool(ad) and frozenset() not in ad, f"{len(ad)} admissible")
        npsi = pframe.baf.resolve("npsi")
        rep.add("skept-pbaf-npsi-iff-unsat", label,
                all(npsi in e for e in ad) == (not sat))
    except TooLarge as exc:
        rep.skip("skept-pbaf", label, str(exc))
    return rep
