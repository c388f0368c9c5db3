"""Vectorized subset enumeration shared by (p)BAF and ABA semantics.

Sets are bitmasks over n elements: arguments of a (p)BAF, or assumptions
of an ABA framework. A `SubsetEngine` splits the bits into a low factor
(bits 0..lo-1) and a high factor (bits lo..n-1) and holds, for every
subset of each factor, the elements it attacks (range) and its closure.
A set's range and closure are the OR of those of its two halves. Every
semantics is a filter over the join of the two factors, the same for
both formalisms; only the builders differ.

For BAFs the range and closure distribute over set union (support is
deductive), so the bits split in halves and no table over all 2^n sets
is built: each factor table of 2^(n/2) entries is filled with a doubling
trick, the table for masks containing element k being the table without
k OR-ed with k's own row. An ABA theory does not distribute over union,
so the ABA builder puts every bit in the low factor, whose tables are
projections of a theory table filled by forward chaining over all
assumption masks at once, and leaves the high factor empty.
"""
from __future__ import annotations

import numpy as np

from .errors import TooLarge

ENUM_LIMIT = 24
PREMISE_LIMIT = 63
SEMANTICS = ("cf", "ad", "co", "gr", "pr", "stb")
DEFENSE_MODES = ("closed-sets", "attacker-closure")
TASKS = ("enumerate", "cred", "skept", "ver")
# largest mask-pair matrix maximal_masks builds instead of its 2^n tables
PAIRWISE_LIMIT = 1 << 20
# bytes of theory table per forward-chaining block of assumption masks:
# bounds its memory whatever the number of assumptions and atoms
CHAIN_BYTES = 1 << 22
# largest block of (low half, high half) pairs the join tests at once:
# a few MB of uint32 temporaries whatever the factors' sizes
JOIN_ENTRIES = 1 << 20


def or_table(n, rows, dtype=np.uint32):
    """out[m] = OR of rows[k] over the bits k set in m."""
    out = np.zeros(1 << n, dtype=dtype)
    rows = np.asarray(rows, dtype=dtype)
    for k in range(n):
        out[1 << k: 2 << k] = out[: 1 << k] | rows[k]
    return out


def _factor_tables(n, lo, rows, dtype=np.uint32):
    """or_table of the rows of bits 0..lo-1 and of bits lo..n-1."""
    return or_table(lo, rows[:lo], dtype), or_table(n - lo, rows[lo:], dtype)


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


def _check_size(what, n):
    if n > ENUM_LIMIT:
        raise TooLarge(what, n, ENUM_LIMIT)


def _bit_views(table, i):
    """Views of the masks without bit i and of the same masks with it."""
    v = table.reshape(-1, 2, 1 << i)
    return v[:, 0], v[:, 1]


class SubsetEngine:
    """Factor tables over n elements; semantics are filters over their join.

    rng = (rng_lo, rng_hi) and cl = (cl_lo, cl_hi): rng_lo[l] is the range
    of the low half l and rng_hi[h] that of the high half h << lo, both as
    n-bit masks, and cl likewise for the closure; lo is the log2 of the
    low tables' length. A set's range and closure are the OR of its
    halves' entries. closures[a]: a set defends a iff its range meets
    every mask in closures[a].
    """

    def __init__(self, n, rng, cl, closures):
        self.n = n
        self.full = np.uint32((1 << n) - 1)
        self.rng_lo, self.rng_hi = rng
        self.cl_lo, self.cl_hi = cl
        self.lo = len(self.rng_lo).bit_length() - 1
        self.low = np.uint32((1 << self.lo) - 1)
        self.closures = closures

    def _halves(self, masks):
        return masks & self.low, masks >> np.uint32(self.lo)

    def range_of(self, masks):
        """The elements each set attacks."""
        lo, hi = self._halves(masks)
        return self.rng_lo[lo] | self.rng_hi[hi]

    def candidate_masks(self):
        """Conflict-free closed sets, in ascending order."""
        return self._join(conflict_free=True, closed=True)

    def conflict_free_masks(self):
        return self._join(conflict_free=True, closed=False)

    def closed_masks(self):
        return self._join(conflict_free=False, closed=True)

    def _join(self, conflict_free, closed):
        """The sets l | h, ascending, of a low half l and a high half h.

        Each half passes its own tests: conflict-free, it does not attack
        itself; closed, its closure adds no bit of its own factor. Each
        pair passes the cross tests: conflict-free, no half attacks a bit
        of the other (`avoid`: a half's range bits in the other factor);
        closed, each half's closure bits in the other factor (`need`) lie
        in the other half. With bits = avoid | need and key = half | need,
        a pair passes both iff (bits_l | bits_h) & (key_l ^ key_h) == 0,
        as long as no half's avoid and need meet; such a half is in no
        set that passes. Halves and pairs are tested in blocks of at most
        JOIN_ENTRIES, so the temporaries stay small whatever the factors'
        sizes.
        """
        lows, lo_bits, lo_key = _factor_halves(
            self.rng_lo, self.cl_lo, 0, self.low, conflict_free, closed)
        highs, hi_bits, hi_key = _factor_halves(
            self.rng_hi, self.cl_hi, self.lo, self.full ^ self.low,
            conflict_free, closed)
        out = [np.zeros(0, dtype=np.uint32)]
        step = max(1, JOIN_ENTRIES // max(len(lows), 1))
        for s in range(0, len(highs), step):
            bad = hi_bits[s:s + step, None] | lo_bits
            bad &= hi_key[s:s + step, None] ^ lo_key
            h, l = np.divmod(np.flatnonzero(bad == 0), len(lows))
            out.append(highs[s + h] | lows[l])
        return np.concatenate(out)

    def gamma(self, masks):
        """Defended-element mask for each set, closure-aware."""
        return _defended(self.range_of(masks), self.closures)

    def admissible_flags(self, cand, g):
        return (cand & ~g) == 0

    def stable_masks(self):
        cand = self._join(conflict_free=True, closed=True)
        return cand[self.range_of(cand) == (self.full ^ cand)]

    def premise_tables(self, premise_masks):
        """Premise union of every low half and every high half."""
        return _factor_tables(self.n, self.lo, premise_masks, np.uint64)

    def exhaustive_flags(self, cand, premise_masks, premise_union):
        """Sets already containing every argument their premises afford."""
        lo, hi = self._halves(cand)
        pu = premise_union[0][lo] | premise_union[1][hi]
        ok = np.ones(len(cand), dtype=bool)
        for a in range(self.n):
            pa = np.uint64(premise_masks[a])
            covered = (pa & ~pu) == np.uint64(0)
            present = (cand >> np.uint32(a)) & np.uint32(1) == 1
            ok &= present | ~covered
        return ok


def _defended(rng, closures):
    """For each range mask, the elements a it defends: those whose every
    mask in closures[a] it meets."""
    out = np.zeros(len(rng), dtype=np.uint32)
    for a, need in enumerate(closures):
        ok = np.ones(len(rng), dtype=bool)
        for c in need:
            ok &= (rng & np.uint32(c)) != 0
        out |= ok.astype(np.uint32) << np.uint32(a)
    return out


def _factor_halves(rng, cl, shift, part, conflict_free, closed):
    """The halves of one factor (bits `part`, from bit `shift` up) that
    pass their own tests, with their bits and keys (see `_join`)."""
    out = []
    for s in range(0, len(rng), JOIN_ENTRIES):
        r, c = rng[s:s + JOIN_ENTRIES], cl[s:s + JOIN_ENTRIES]
        half = np.arange(s, s + len(r), dtype=np.uint32) << np.uint32(shift)
        avoid = r & ~part if conflict_free else np.zeros_like(half)
        need = c & ~part if closed else np.zeros_like(half)
        keep = (avoid & need) == 0
        if conflict_free:
            keep &= (r & half) == 0
        if closed:
            keep &= (c & part) == half
        out.append((half[keep], (avoid | need)[keep], (half | need)[keep]))
    return [np.concatenate(col) for col in zip(*out)]


# ---------------------------------------------------------------- builders

def baf_engine(n, att_pairs, sup_pairs):
    """Engine over the arguments of a BAF: defending a means attacking the
    support closure of every attacker of a."""
    _check_size("argument count", n)
    att_rows = [0] * n
    attackers = [set() for _ in range(n)]
    for s, t in att_pairs:
        att_rows[s] |= 1 << t
        attackers[t].add(s)
    cl1 = single_closures(n, sup_pairs)
    closures = [sorted({cl1[b] for b in attackers[a]}) for a in range(n)]
    lo = n // 2
    return SubsetEngine(n, _factor_tables(n, lo, att_rows),
                        _factor_tables(n, lo, cl1), closures)


def theory_tables(k, n_atoms, rules, contrary):
    """cl and rng of every assumption mask, by forward chaining.

    Atoms 0..k-1 are the assumptions, in mask bit order; rules are
    (head, body) atom indices; contrary[i] is the atom index of the
    contrary of assumption i. The theory of a block of masks is a bool
    row per atom, so any number of atoms fits. Every rule is applied as
    th[head] |= AND of th[body] until nothing changes.
    """
    _check_size("assumption count", k)
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


def aba_engine(k, n_atoms, rules, contrary):
    """Engine over the assumptions of an ABA framework (encoded as in
    `theory_tables`).

    S defends a iff S attacks the closure of every subset-minimal set M
    deriving the contrary of a. Because the theory is monotone, M is
    minimal for a exactly when a is in rng[M] and in no rng[M - {i}].
    """
    cl, rng = theory_tables(k, n_atoms, rules, contrary)
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
    empty = np.zeros(1, dtype=np.uint32)  # the high factor: no bits
    return SubsetEngine(k, (rng, empty), (cl, empty), closures)


# ----------------------------------------------------------------- filters

def _extension_masks(frame, semantics, engine=None):
    """Extension masks of one semantics over a Baf, a Pbaf or an
    AbaFramework. The engine is `engine`, `frame.engine()` built once for
    several calls, or else built once the name is checked. A frame with
    premises (a Pbaf) keeps only its exhaustive candidates before defense
    is read."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    eng = engine if engine is not None else frame.engine()
    if semantics == "cf":
        return eng.conflict_free_masks()
    if semantics == "stb":
        return eng.stable_masks()
    cand = eng.candidate_masks()
    g = eng.gamma(cand)
    if hasattr(frame, "premise_masks"):
        premise_masks = frame.premise_masks()
        keep = eng.exhaustive_flags(cand, premise_masks,
                                    eng.premise_tables(premise_masks))
        cand, g = cand[keep], g[keep]
    if semantics == "ad":
        return cand[eng.admissible_flags(cand, g)]
    if semantics == "co":
        return cand[cand == g]
    if semantics == "pr":
        return maximal_masks(cand[eng.admissible_flags(cand, g)], eng.n)
    co = cand[cand == g]
    least = np.bitwise_and.reduce(co, initial=eng.full) if len(co) else 0
    return np.array([least], dtype=np.uint32)


def closed_set_defends(eng, attacked, a):
    """Defense by the definition: every closed set that attacks element a
    meets `attacked`, the mask of what the defending set attacks."""
    closed = eng.closed_masks()
    attackers = closed[(eng.range_of(closed) >> np.uint32(a)) & 1 == 1]
    return bool(np.all(attackers & np.uint32(attacked)))


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


# entry b: the byte b with its bits in reverse order, and its bit count
_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)],
                          dtype=np.int64)
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _dictionary_rank(masks, n):
    """Position of each mask among all 2^n sets listed in the
    lexicographic order of their sorted member tuples, a prefix first.

    From the empty set (position 0), a set a1 < ... < ak is reached by
    one step per member, each step to a_i first skipping the sets that
    continue the prefix with some v between a_(i-1) and a_i, 2^(n-1-v)
    of them per v. Summed, with r the mask's bits reversed within n bits,
    that is 2^n + k - r - (lowest bit of r).
    """
    m = masks.astype(np.int64)
    r = np.zeros(len(m), dtype=np.int64)
    k = np.zeros(len(m), dtype=np.int64)
    for shift in range(0, 32, 8):
        byte = (m >> shift) & 255
        r |= _REVERSED_BYTE[byte] << (24 - shift)
        k += _BYTE_BITS[byte]
    r >>= 32 - n
    return np.where(m == 0, 0, (1 << n) + k - r - (r & -r))


def mask_members(masks, labels, order=None):
    """The member tuples of the masks, bit i standing for labels[i]. Each
    tuple lists its members in bit order and the tuples are in the
    lexicographic order of these lists, a prefix first. `order`, when
    given, is the bit order to use: a list of all bit indices."""
    masks = np.asarray(masks, dtype=np.uint32)
    if order is not None:
        moved = np.zeros_like(masks)
        for j, i in enumerate(order):
            moved |= ((masks >> np.uint32(i)) & np.uint32(1)) << np.uint32(j)
        masks, labels = moved, [labels[i] for i in order]
    masks = masks[np.argsort(_dictionary_rank(masks, len(labels)), kind="stable")]
    members = [()] * len(masks)
    for k in range(0, len(labels), 8):
        table = [()]  # table[b]: the labels of the bits set in byte b
        for x in labels[k:k + 8]:
            table += [t + (x,) for t in table]
        column = ((masks >> np.uint32(k)) & np.uint32(255)).tolist()
        members = [t + table[b] for t, b in zip(members, column)]
    return members


def mask_sets(masks, labels):
    """The frozensets of labels the masks stand for (bit i is labels[i]),
    ordered by their sorted bit tuples, a prefix first."""
    return [frozenset(t) for t in mask_members(masks, labels)]


def decide(task, query, bit, extension_masks):
    """The task dispatch of every formalism, on extension masks.

    enumerate: the masks themselves. cred: the query is in some extension.
    skept: in every extension (vacuously true when there are none). ver:
    the query set is an extension. `bit` checks one query item and gives
    its bit index; `extension_masks()` enumerates the family once the
    query is checked.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "enumerate":
        return extension_masks()
    if task == "ver":
        target = np.uint32(sum({1 << bit(x) for x in query}))
        return bool(np.any(extension_masks() == target))
    b = np.uint32(1 << bit(query))
    hit = extension_masks() & b
    return bool(hit.any() if task == "cred" else hit.all())
