"""Randomized cross-checking of the semantics against each other.

Three families of checks:

  check_correspondence       an ABA framework against its argument graph,
                             with and without premise labels
  check_defense_equivalence  the two defense notions against each other,
                             exhaustively over (set, argument) pairs
  check_construction_lemmas  the four CNF gadgets against brute-force SAT

Oversized cases are recorded as skipped, never silently dropped.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product

import numpy as np

from .aba import (AbaFramework, aba_closure, aba_defends, aba_extensions,
                  enumerate_arguments)
from .baf import (Baf, Pbaf, baf_closure, baf_defends, baf_extensions,
                  pbaf_extensions)
from .errors import CapExceeded, TooLarge
from .instantiate import (arguments_for, assumptions_of, instantiate_pbaf,
                          is_assumption_exhaustive)
from .masks import _defended
from .reductions import (Cnf, brute_force_sat, construct_gr_baf,
                         construct_sat_baf, construct_skept_baf,
                         construct_skept_pbaf)

CORRESPONDENCE_ARG_LIMIT = 24
CHECK_ARGUMENT_CAP = 2000
# closed-set defense (`_not_defended`) loops in Python over the closed
# sets, up to 2^n of them, each a pass over all 2^n sets
DEFENSE_ASSUMPTION_LIMIT = 8


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
    rng = random.Random(params.seed)
    atoms = [f"s{i}" for i in range(1, params.n_atoms + 1)]
    k = min(params.n_assumptions, params.n_atoms)
    assumptions = atoms[:k]
    contrary = {a: rng.choice(atoms) for a in assumptions}
    rules = []
    for _ in range(params.n_rules):
        head = rng.choice(atoms)
        body = tuple(rng.sample(atoms, rng.randint(0, params.max_body)))
        rules.append((head, body))
    return AbaFramework(atoms, assumptions, contrary, rules)


def random_baf(n, seed, p_att=0.25, p_sup=0.15) -> Baf:
    rng = random.Random(seed)
    att = [(i, j) for i in range(n) for j in range(n) if rng.random() < p_att]
    sup = [(i, j) for i in range(n) for j in range(n)
           if i != j and rng.random() < p_sup]
    return Baf(n, att, sup)


def random_pbaf(n, seed, premise_bound=6, p_empty=0.25, **kw) -> Pbaf:
    rng = random.Random(seed ^ 0x5EED)
    frame = random_baf(n, seed, **kw)
    premises = []
    for _ in range(n):
        if rng.random() < p_empty:
            premises.append(frozenset())
        else:
            size = rng.randint(1, max(1, premise_bound // 2))
            premises.append(frozenset(rng.sample(range(premise_bound), size)))
    return Pbaf(frame, premises, premise_bound)


def random_cnf(seed, n_vars=4, max_clauses=3) -> Cnf:
    rng = random.Random(seed)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, n_vars + 1), width)
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

    def to_json(self):
        return {
            "checks": [vars(it) for it in self.items],
            "cases_run": self.cases_run,
            "failures": len(self.failures),
            "skipped": len(self.skipped),
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


# -------------------------------------------------------- correspondence

def _fmt_asm(s):
    return "{" + ",".join(sorted(s)) + "}"


def check_correspondence(frame: AbaFramework, cap=CHECK_ARGUMENT_CAP,
                         arg_limit=CORRESPONDENCE_ARG_LIMIT, label="",
                         targets=("baf", "pbaf"), semantics=None) -> CheckReport:
    """Extensions of the framework against extensions of its argument graph.

    Attack/support graph alone: forward agreement for co/gr/stb, backward
    for ad/co/gr/stb. With premise labels: both directions for all five
    semantics. Passing a single semantics name restricts the comparison to
    it. The grounded convention (empty family of complete sets yields the
    empty grounded member) is checked for consistency instead of being
    pushed through the argument mapping.
    """
    rep = CheckReport()
    try:
        args = enumerate_arguments(frame, cap)
    except CapExceeded:
        rep.skip("correspondence", label, f"argument cap {cap} exceeded")
        return rep
    if len(args) > arg_limit:
        rep.skip("correspondence", label,
                 f"{len(args)} arguments, limit {arg_limit}")
        return rep
    inst = instantiate_pbaf(frame, cap)
    aba_eng = frame.engine()
    d_family = {s: aba_extensions(frame, s, engine=aba_eng)
                for s in ("ad", "co", "gr", "pr", "stb")}
    del aba_eng
    co_d_empty = not d_family["co"]

    def run_side(side, family, semantics_list, forward_list):
        if semantics is not None:
            semantics_list = tuple(s for s in semantics_list if s == semantics)
        for sem in semantics_list:
            if sem == "gr" and co_d_empty:
                agree = (d_family["gr"] == [frozenset()]
                         and family("gr") == [frozenset()]
                         and not family("co"))
                rep.add(f"{side}-gr-convention", label, agree,
                        "" if agree else "empty-complete conventions disagree")
                continue
            if sem in forward_list:
                bad = [e for e in family(sem)
                       if assumptions_of(inst, e) not in d_family[sem]]
                rep.add(f"{side}-{sem}-forward", label, not bad,
                        "" if not bad
                        else f"graph extension maps outside: "
                             f"{_fmt_asm(assumptions_of(inst, bad[0]))}")
            bad = [s for s in d_family[sem]
                   if arguments_for(inst, s) not in family(sem)]
            rep.add(f"{side}-{sem}-backward", label, not bad,
                    "" if not bad else f"no graph extension for {_fmt_asm(bad[0])}")

    try:
        # one engine serves both sides: the premise labels only add a filter
        eng = inst.baf.engine()
        baf_family = cache(lambda s: baf_extensions(inst.baf, s, engine=eng))
        pbaf_family = cache(lambda s: pbaf_extensions(inst.pbaf, s, engine=eng))
        if "baf" in targets:
            run_side("baf", baf_family, ("ad", "co", "gr", "stb"),
                     ("co", "gr", "stb"))
            if semantics in (None, "co", "stb"):
                exhaustive_bad = [
                    e for sem in ("co", "stb") for e in baf_family(sem)
                    if not is_assumption_exhaustive(inst, e)]
                rep.add("baf-co-stb-exhaustive", label, not exhaustive_bad)
        if "pbaf" in targets:
            run_side("pbaf", pbaf_family, ("ad", "co", "gr", "pr", "stb"),
                     ("ad", "co", "gr", "pr", "stb"))
        cl_bad = []
        for i, a in enumerate(inst.arguments):
            graph_side = assumptions_of(inst, baf_closure(inst.baf, {i}))
            if graph_side != aba_closure(frame, a.support):
                cl_bad.append(str(a))
        rep.add("single-argument-closure", label, not cl_bad,
                "" if not cl_bad else cl_bad[0])
    except TooLarge as exc:
        rep.skip("correspondence", label, str(exc))
    return rep


# ------------------------------------------------------ defense equivalence

def check_defense_equivalence(frame, label="",
                              cap=CHECK_ARGUMENT_CAP) -> CheckReport:
    """Compare closed-set defense with attacker-closure defense on every
    (set, element) pair. Accepts a Baf, whose engine holds the attackers'
    closures, or an AbaFramework, whose attackers are the arguments that
    conclude a contrary."""
    rep = CheckReport()
    if isinstance(frame, AbaFramework):
        n = len(frame.assumptions)
        if n > DEFENSE_ASSUMPTION_LIMIT:
            rep.skip("defense-equivalence", label,
                     f"{n} assumptions, limit {DEFENSE_ASSUMPTION_LIMIT}")
            return rep
        try:
            args = enumerate_arguments(frame, cap)
        except CapExceeded:
            rep.skip("defense-equivalence", label, f"argument cap {cap} exceeded")
            return rep
        eng = frame.engine()
        closures = [
            sorted({frame._asm_mask(aba_closure(frame, arg.support))
                    for arg in args if arg.conclusion == frame.contrary[a]})
            for a in frame.assumptions]

        def mismatch(m, i):
            s = [a for j, a in enumerate(frame.assumptions) if m >> j & 1]
            a = frame.assumptions[i]
            left = aba_defends(frame, s, a, mode="closed-sets", engine=eng)
            right = aba_defends(frame, s, a, mode="attacker-closure", cap=cap)
            return (f"S={_fmt_asm(s)} a={a} closed-sets={left} "
                    f"attacker-closure={right}")
    else:
        try:
            eng = frame.engine()
        except TooLarge as exc:
            rep.skip("defense-equivalence", label, str(exc))
            return rep
        closures = eng.closures

        def mismatch(m, a):
            ext = [i for i in range(frame.n) if m >> i & 1]
            return (f"E={ext} a={a} "
                    f"attacker-closure={baf_defends(frame, ext, a)} "
                    f"closed-sets={baf_defends(frame, ext, a, mode='closed-sets')}")
    every = np.arange(1 << eng.n, dtype=np.uint32)
    rng = eng.range_of(every)
    via_attcl = _defended(rng, closures)
    via_closed = eng.full & ~_not_defended(rng, eng.closed_masks())
    bad = np.flatnonzero(via_attcl != via_closed)
    if len(bad) == 0:
        rep.add("defense-equivalence", label, True, f"{len(every) * eng.n} pairs")
        return rep
    m = int(bad[0])
    diff = int(via_attcl[m] ^ via_closed[m])
    rep.add("defense-equivalence", label, False,
            mismatch(m, (diff & -diff).bit_length() - 1))
    return rep


def _not_defended(rng, closed_masks):
    """For every set, by the definition: the elements attacked by some
    closed set that the set itself does not attack."""
    out = np.zeros(len(rng), dtype=np.uint32)
    for t in closed_masks:
        if rng[t]:
            out[(rng & np.uint32(t)) == 0] |= rng[t]
    return out


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
