"""Vectorized subset enumeration shared by (p)BAF and ABA semantics.

Sets are bitmasks over n elements: arguments of a (p)BAF, or assumptions
of an ABA framework. A `SubsetEngine` holds, for every one of the 2^n
subsets, the elements it attacks (`rng`) and its closure (`cl`), plus for
every element the closures a set must attack to defend it. Every semantics
is a filter over those tables, the same for both formalisms; only the
builders differ.

For BAFs the range and closure distribute over set union, so their tables
are filled with a doubling trick: the table for masks containing element k
is the table without k OR-ed with k's own row. For ABA frameworks they are
projections of a theory table filled by forward chaining over all
assumption masks at once.
"""
from __future__ import annotations

import numpy as np

from .errors import TooLarge

ENUM_LIMIT = 24
PREMISE_LIMIT = 63
SEMANTICS = ("cf", "ad", "co", "gr", "pr", "stb")
TASKS = ("enumerate", "cred", "skept", "ver")
# largest mask-pair matrix maximal_masks builds instead of its 2^n tables
PAIRWISE_LIMIT = 1 << 20
# bytes of theory table per forward-chaining block of assumption masks:
# bounds its memory whatever the number of assumptions and atoms
CHAIN_BYTES = 1 << 22


def or_table(n, rows, dtype=np.uint32):
    """out[m] = OR of rows[k] over the bits k set in m."""
    out = np.zeros(1 << n, dtype=dtype)
    rows = np.asarray(rows, dtype=dtype)
    for k in range(n):
        out[1 << k: 2 << k] = out[: 1 << k] | rows[k]
    return out


def single_closures(n, sup_pairs):
    """Closure of each singleton under outgoing support edges."""
    out_edges = [[] for _ in range(n)]
    for s, t in sup_pairs:
        out_edges[s].append(t)
    closures = []
    for start in range(n):
        seen = 1 << start
        stack = [start]
        while stack:
            v = stack.pop()
            for w in out_edges[v]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        closures.append(seen)
    return closures


def _check_size(what, n, limit):
    if n > min(limit, ENUM_LIMIT):
        raise TooLarge(what, n, min(limit, ENUM_LIMIT))


def _bit_views(table, i):
    """Views of the masks without bit i and of the same masks with it."""
    v = table.reshape(-1, 2, 1 << i)
    return v[:, 0], v[:, 1]


class SubsetEngine:
    """Tables over all 2^n subsets; semantics are filters over them.

    rng[m]: the elements m attacks. cl[m]: the closure of m. closures[a]:
    a set defends a iff its range meets every mask in closures[a].
    """

    def __init__(self, n, rng, cl, closures):
        self.n = n
        self.size = 1 << n
        self.full = np.uint32(self.size - 1)
        self.rng = rng
        self.cl = cl
        self.closures = closures
        idx = np.arange(self.size, dtype=np.uint32)
        self.closed = cl == idx
        idx &= rng
        self.conflict_free = idx == 0

    def candidate_masks(self):
        return np.flatnonzero(self.conflict_free & self.closed).astype(np.uint32)

    def gamma(self, masks):
        """Defended-element mask for each set, closure-aware."""
        rng_m = self.rng[masks]
        out = np.zeros(len(masks), dtype=np.uint32)
        for a in range(self.n):
            ok = np.ones(len(masks), dtype=bool)
            for c in self.closures[a]:
                ok &= (rng_m & np.uint32(c)) != 0
            out |= ok.astype(np.uint32) << np.uint32(a)
        return out

    def admissible_flags(self, cand, g):
        return (cand & ~g) == 0

    def stable_masks(self):
        closed_masks = np.flatnonzero(self.closed).astype(np.uint32)
        ok = self.rng[closed_masks] == (self.full ^ closed_masks)
        return closed_masks[ok]

    def premise_tables(self, premise_masks):
        return or_table(self.n, premise_masks, dtype=np.uint64)

    def exhaustive_flags(self, cand, premise_masks, premise_union):
        """Sets already containing every argument their premises afford."""
        pu = premise_union[cand]
        ok = np.ones(len(cand), dtype=bool)
        for a in range(self.n):
            pa = np.uint64(premise_masks[a])
            covered = (pa & ~pu) == np.uint64(0)
            present = (cand >> np.uint32(a)) & np.uint32(1) == 1
            ok &= present | ~covered
        return ok


# ---------------------------------------------------------------- builders

def baf_engine(n, att_pairs, sup_pairs, limit=ENUM_LIMIT):
    """Engine over the arguments of a BAF: defending a means attacking the
    support closure of every attacker of a."""
    _check_size("argument count", n, limit)
    att_rows = [0] * n
    attackers = [set() for _ in range(n)]
    for s, t in att_pairs:
        att_rows[s] |= 1 << t
        attackers[t].add(s)
    cl1 = single_closures(n, sup_pairs)
    closures = [sorted({cl1[b] for b in attackers[a]}) for a in range(n)]
    return SubsetEngine(n, or_table(n, att_rows), or_table(n, cl1), closures)


def theory_tables(k, n_atoms, rules, contrary, limit=ENUM_LIMIT):
    """cl and rng of every assumption mask, by forward chaining.

    Atoms 0..k-1 are the assumptions, in mask bit order; rules are
    (head, body) atom indices; contrary[i] is the atom index of the
    contrary of assumption i. The theory of a block of masks is a bool
    row per atom, so any number of atoms fits. Every rule is applied as
    th[head] |= AND of th[body] until nothing changes.
    """
    _check_size("assumption count", k, limit)
    facts = sorted({h for h, body in rules if not body})
    rules = [(h, body) for h, body in rules if body]
    derived = [h for h in sorted({h for h, _ in rules} | set(facts)) if h < k]
    size = 1 << k
    block = min(size, 1 << max(10, (CHAIN_BYTES // max(n_atoms, 1)).bit_length() - 1))
    low = block.bit_length() - 1
    idx = np.arange(block, dtype=np.uint32)
    low_bits = ((idx >> np.arange(low, dtype=np.uint32)[:, None]) & 1).astype(bool)
    th = np.empty((n_atoms, block), dtype=bool)
    cl = np.empty(size, dtype=np.uint32)
    rng = np.zeros(size, dtype=np.uint32)
    for lo in range(0, size, block):
        th[:] = False
        th[:low] = low_bits
        for i in range(low, k):
            th[i] = lo >> i & 1
        th[facts] = True
        changed = True
        while changed:
            changed = False
            for h, body in rules:
                new = ~th[h]
                for b in body:
                    new &= th[b]
                if new.any():
                    th[h] |= new
                    changed = True
        # bool rows to mask bits: multiplying the rows' 0/1 bytes by the
        # bit is several times faster than a masked or shifted write
        part = cl[lo:lo + block]
        part[:] = idx | np.uint32(lo)
        for i in derived:
            part |= th[i].view(np.uint8) * np.uint32(1 << i)
        part = rng[lo:lo + block]
        for i, c in enumerate(contrary):
            part |= th[c].view(np.uint8) * np.uint32(1 << i)
    return cl, rng


def aba_engine(k, n_atoms, rules, contrary, limit=ENUM_LIMIT):
    """Engine over the assumptions of an ABA framework (encoded as in
    `theory_tables`).

    S defends a iff S attacks the closure of every subset-minimal set M
    deriving the contrary of a. Because the theory is monotone, M is
    minimal for a exactly when a is in rng[M] and in no rng[M - {i}].
    """
    cl, rng = theory_tables(k, n_atoms, rules, contrary, limit)
    minimal_for = np.zeros_like(rng)  # first: OR of rng[M - {i}] over i in M
    for i in range(k):
        with_i = _bit_views(minimal_for, i)[1]
        with_i |= _bit_views(rng, i)[0]
    np.bitwise_not(minimal_for, out=minimal_for)
    minimal_for &= rng
    derivers = np.flatnonzero(minimal_for)
    targets = minimal_for[derivers]
    del minimal_for  # a full table, freed before the engine's own
    closures = [np.unique(cl[derivers[(targets >> np.uint32(a)) & 1 == 1]]).tolist()
                for a in range(k)]
    return SubsetEngine(k, rng, cl, closures)


# ----------------------------------------------------------------- filters

def _extension_masks(eng, semantics, exhaustive=None):
    """Extension masks of one semantics. `exhaustive(cand)`, when given,
    flags the candidates kept before defense is read (pBAF premises)."""
    if semantics == "cf":
        return np.flatnonzero(eng.conflict_free).astype(np.uint32)
    if semantics == "stb":
        return eng.stable_masks()
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    cand = eng.candidate_masks()
    g = eng.gamma(cand)
    if exhaustive is not None:
        keep = exhaustive(cand)
        cand, g = cand[keep], g[keep]
    if semantics == "ad":
        return cand[eng.admissible_flags(cand, g)]
    if semantics == "co":
        return cand[cand == g]
    if semantics == "pr":
        return maximal_masks(cand[eng.admissible_flags(cand, g)], eng.n)
    co = cand[cand == g]
    return np.array([intersect_masks(co, eng.full)], dtype=np.uint32)


def maximal_masks(masks, n):
    """Drop every mask that has a strict superset in the list; masks are
    over n bits and keep their order.

    A short list is compared pairwise. Otherwise n passes over a 2^n table
    mark every subset of a listed mask and n more find the masks with a
    marked strict superset, O(n 2^n) whatever the list's length.
    """
    masks = np.asarray(masks, dtype=np.uint32)
    if len(masks) ** 2 <= min(n << n, PAIRWISE_LIMIT):
        superset = (masks[:, None] & ~masks[None, :]) == 0
        strict = superset & (masks[:, None] != masks[None, :])
        return masks[~strict.any(axis=1)]
    below = np.zeros(1 << n, dtype=bool)
    below[masks] = True
    for i in range(n):
        without, with_i = _bit_views(below, i)
        without |= with_i
    strictly_below = np.zeros(1 << n, dtype=bool)
    for i in range(n):
        without = _bit_views(strictly_below, i)[0]
        without |= _bit_views(below, i)[1]
    return masks[~strictly_below[masks]]


def intersect_masks(masks, full):
    out = full
    for m in masks:
        out &= int(m)
    return int(out) if len(masks) else 0


def decide(task, query, element, extensions):
    """The task dispatch of both formalisms.

    enumerate: the family itself. cred: the query is in some extension.
    skept: in every extension (vacuously true when there are none). ver:
    the query set is an extension. `element` checks and maps one query
    item; `extensions()` enumerates the family once the query is checked.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "enumerate":
        return extensions()
    if task == "ver":
        target = frozenset(element(x) for x in query)
        return target in extensions()
    a = element(query)
    if task == "cred":
        return any(a in ext for ext in extensions())
    return all(a in ext for ext in extensions())
