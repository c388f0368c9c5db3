"""Randomized cross-checking of the semantics against each other.

Three families of checks:

  check_correspondence       an ABA framework against its argument graph,
                             with and without premise labels
  check_defense_equivalence  the two defense notions against each other,
                             exhaustively over (set, argument) pairs
  check_construction_lemmas  the four CNF gadgets against brute-force SAT

A case that trips a size guard or the argument cap is recorded as
skipped, with the guard's message, never silently dropped.

The checks compare uint32 masks from `masks.families`, never sets of
labels: the correspondence maps families across with each argument's
support as an assumption mask and tests membership with `np.isin`, and
the gadget lemmas test the bits of the arguments they name. Only the
first offending set of a failed check is turned into names. The `fuzz`
verb draws each seed's `random_aba` framework once and hands it to
`check_correspondence` and `check_defense_equivalence`, which share its
argument memo.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .aba import AbaFramework, attacker_closures, enumerate_arguments
from .baf import Baf, Pbaf
from .errors import CapExceeded, TooLarge
from .instantiate import instantiate_pbaf
from .masks import (_check_size, _dictionary_rank, _or_map, _unmet,
                    closed_set_gamma, families, row_masks, single_closures)
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


def _first(masks, n):
    """The index of the mask listed first by the sorted tuples of its n
    bits, the order `mask_sets` lists a family in."""
    return int(np.argmin(_dictionary_rank(masks, n)))


class _SupportMaps:
    """The arguments of an instantiation as masks over the assumptions of
    its source, bit i being assumption i: `forward` takes graph extensions
    to the union of their members' supports (`assumptions_of`),
    `backward` assumption sets to the arguments whose support lies inside
    them (`arguments_for`), and `exhaustive` tests each graph extension
    for holding every argument its own assumptions build
    (`is_assumption_exhaustive`), all on uint32 arrays of masks."""

    def __init__(self, inst):
        frame = inst.source
        self.full = np.uint32((1 << len(frame.assumptions)) - 1)
        support = [sum(1 << frame.resolve(a) for a in arg.support)
                   for arg in inst.arguments]
        self.needs = [[m] for m in support]
        self.forward = _or_map(support)

    def backward(self, sets):
        """The arguments whose support misses every assumption outside
        each set, by `_unmet`, which tests blocks of at most JOIN_ENTRIES
        sets at once."""
        return _unmet(self.full ^ sets, self.needs)

    def exhaustive(self, ext):
        """Does each extension equal backward(forward(extension))?"""
        return self.backward(self.forward(ext)) == ext


def check_correspondence(frame: AbaFramework, cap=CHECK_ARGUMENT_CAP,
                         label="") -> CheckReport:
    """Extensions of the framework against extensions of its argument graph.

    Attack/support graph alone: forward agreement for co/gr/stb, backward
    for ad/co/gr/stb. With premise labels: both directions for all five
    semantics. The grounded convention (empty family of complete sets
    yields the empty grounded member) is checked for consistency instead of
    being pushed through the argument mapping. Families stay uint32 masks
    (`_SupportMaps` maps them across and `np.isin` tests membership); only
    the first offending set of a failed check, in `mask_sets` order, is
    turned into names.
    """
    rep = CheckReport()
    names = ("ad", "co", "gr", "pr", "stb")

    def fmt(m):
        return _fmt_asm(a for i, a in enumerate(frame.assumptions) if m >> i & 1)

    def run_side(side, family, compared, forward_list):
        for sem in compared:
            if sem == "gr" and co_d_empty:
                agree = (d_family["gr"].tolist() == [0]
                         and family["gr"].tolist() == [0]
                         and not len(family["co"]))
                rep.add(f"{side}-gr-convention", label, agree,
                        "" if agree else "empty-complete conventions disagree")
                continue
            if sem in forward_list:
                ext = family[sem]
                image = maps.forward(ext)
                bad = ~np.isin(image, d_family[sem])
                rep.add(f"{side}-{sem}-forward", label, not bad.any(),
                        "" if not bad.any()
                        else f"graph extension maps outside: "
                             f"{fmt(image[bad][_first(ext[bad], n)])}")
            bad = d_family[sem][~np.isin(back[sem], family[sem])]
            rep.add(f"{side}-{sem}-backward", label, not len(bad),
                    "" if not len(bad)
                    else f"no graph extension for {fmt(bad[_first(bad, k)])}")

    try:
        # the engine's own guard, before the graph is built and solved
        _check_size("argument count", len(enumerate_arguments(frame, cap)))
        inst = instantiate_pbaf(frame, cap)
        n, k = inst.baf.n, len(frame.assumptions)
        maps = _SupportMaps(inst)
        d_family = families(frame, names)
        back = {sem: maps.backward(sets) for sem, sets in d_family.items()}
        co_d_empty = not len(d_family["co"])
        compared = ("ad", "co", "gr", "stb")
        family = families(inst.baf, compared)
        run_side("baf", family, compared, ("co", "gr", "stb"))
        rep.add("baf-co-stb-exhaustive", label,
                all(maps.exhaustive(family[sem]).all() for sem in ("co", "stb")))
        family = families(inst.pbaf, names)
        run_side("pbaf", family, names, names)
        closure = maps.forward(np.array(single_closures(n, inst.baf.sup),
                                        dtype=np.uint32))
        th = frame._theories([a.support for a in inst.arguments])
        cl_bad = np.flatnonzero(closure != row_masks(th[:k]))
        rep.add("single-argument-closure", label, not len(cl_bad),
                "" if not len(cl_bad) else str(inst.arguments[cl_bad[0]]))
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
    """All four gadgets on one formula, against the brute-force verdict.
    Each family stays uint32 masks from `families`, and each lemma tests
    the bits of the arguments it names on the whole family at once."""
    rep = CheckReport()
    try:
        sat = brute_force_sat(cnf)
    except TooLarge as exc:
        rep.skip("constructions", label, str(exc))
        return rep

    def bits(frame, *names):
        return np.uint32(sum(1 << frame.resolve(x) for x in names))

    try:
        frame = construct_sat_baf(cnf)
        co = families(frame, ("co",))["co"]
        rep.add("sat-baf-nonempty-iff-sat", label, (len(co) > 0) == sat,
                f"sat={sat} extensions={len(co)}")
        top_phi = bits(frame, "top", "phi")
        rep.add("sat-baf-top-phi", label,
                bool(np.all((co & top_phi) == top_phi)))
    except TooLarge as exc:
        rep.skip("sat-baf", label, str(exc))

    try:
        frame = construct_gr_baf(cnf)
        gr = int(families(frame, ("gr",))["gr"][0])
        want = bits(frame, "top", "phi") if sat else 0
        got = sorted(x for i, x in enumerate(frame.names) if gr >> i & 1)
        rep.add("gr-baf-grounded", label, gr == want, f"got {got}")
    except TooLarge as exc:
        rep.skip("gr-baf", label, str(exc))

    try:
        frame = construct_skept_baf(cnf)
        co = families(frame, ("co",))["co"]
        rep.add("skept-baf-count", label, len(co) == 2 ** cnf.n_vars,
                f"{len(co)} complete vs {2 ** cnf.n_vars} assignments")
        npsi = bits(frame, "npsi")
        rep.add("skept-baf-npsi-iff-unsat", label,
                bool(np.all(co & npsi)) == (not sat))
        # every set holds top_i and d_i, and x_i or nx_i but not both
        variables = range(1, cnf.n_vars + 1)
        fixed = bits(frame, *(f"{p}{i}" for i in variables for p in ("top", "d")))
        x, nx = (np.array([frame.resolve(f"{p}{i}") for i in variables],
                          dtype=np.uint32) for p in ("x", "nx"))
        one_literal = ((co[:, None] >> x) ^ (co[:, None] >> nx)) & 1
        rep.add("skept-baf-shape", label,
                bool(np.all((co & fixed) == fixed) and one_literal.all()))
    except TooLarge as exc:
        rep.skip("skept-baf", label, str(exc))

    try:
        pframe = construct_skept_pbaf(cnf)
        ad = families(pframe, ("ad",))["ad"]
        rep.add("skept-pbaf-admissible-exist", label,
                len(ad) > 0 and 0 not in ad, f"{len(ad)} admissible")
        npsi = bits(pframe, "npsi")
        rep.add("skept-pbaf-npsi-iff-unsat", label,
                bool(np.all(ad & npsi)) == (not sat))
    except TooLarge as exc:
        rep.skip("skept-pbaf", label, str(exc))
    return rep
