"""Vectorized subset enumeration shared by (p)BAF and ABA semantics.

Sets are bitmasks over n elements: arguments of a (p)BAF, or assumptions
of an ABA framework. A `SubsetEngine` splits the bits into a low factor
(bits 0..lo-1) and a high factor (bits lo..n-1) and holds, for every
subset of each factor, the elements it attacks (range) and its closure.
A set's range and closure are the OR of those of its two halves. Every
semantics is a filter over the join of the two factors, the same for
both formalisms; only the builders differ.

Where range and closure distribute over set union, in a BAF (support is
deductive) and an atomic ABA framework (no rule body of two atoms),
`row_engine`, the one two-factor builder, takes them from per-element
rows and no table over all 2^n sets is built: each factor table of
2^(n/2) entries is filled with a doubling trick, the table for masks
containing element k being the table without k OR-ed with k's own row,
and one pass of it (`_factor_tables`) fills the range and closure
tables of both factors. Other ABA theories need not distribute over
union, so `aba_engine` puts every bit in the low factor, whose tables
are projections of a theory table over all assumption masks, and leaves
the high factor empty. `forward_chain`, the one forward-chaining routine,
fills that table block by block and serves any list of assumption
sets. `families`, the one route from a frame to extension masks,
runs any names on one engine and one candidate join, which `stb` shares;
`cf` alone joins apart. Unless `stb` is asked, a pBAF's join takes its
premise tables and drops most non-exhaustive sets on the way. When every
name is `co`, `gr` or `stb`, the join also takes the grounded core S*
(`grounded_core`) and its range: both restrictions are extra closure or
range bits of each half, which the join's own tests enforce. `decide`,
the one route from a request to an answer for every formalism, takes the
frame, resolves the query on it and takes the family from `families`.
`_subset_or`, the subset-OR transform of a uint32 table, serves only
closed-set defense; maximality runs `_superset_or` over 2^n bits, 64 sets
to a word. `_unmet`, the one unmet-mask test, takes a block of sets
against every needed mask at once and serves attacker-closure defense,
pBAF exhaustiveness and the join's premise prefilter. `mask_text`, the
one rendering routine, writes a family's text and JSON from the member
text of each distinct mask half, built once and gathered for all masks
at once; `mask_sets` joins the same halves' member tuples, one
concatenation per mask.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .errors import SolverError, TooLarge

ENUM_LIMIT = 24
SEMANTICS = ("cf", "ad", "co", "gr", "pr", "stb")
DEFENSE_MODES = ("closed-sets", "attacker-closure")
TASKS = ("enumerate", "cred", "skept", "ver")
# mask pairs maximal_masks compares in about the time its 2^n-bit table
# takes at small n: it compares a list pairwise while len^2 is at most
# PAIRWISE_LIMIT + 2^n
PAIRWISE_LIMIT = 1 << 16
# bytes of theory table per forward-chaining block of assumption masks:
# bounds its memory whatever the number of assumptions and atoms
CHAIN_BYTES = 1 << 22
# largest block of pairs tested at once, (low half, high half) in the
# join, (needed mask, set) in `_unmet`, (mask, mask) in maximality: 512 KB
# of uint32 temporaries whatever the sizes
JOIN_ENTRIES = 1 << 17


def or_table(n, rows):
    """out[..., m] = OR of rows[..., k] over the bits k set in m. rows is
    one list of n rows, or several stacked (shape (lists, n)), which one
    doubling pass fills together: one numpy operation per bit."""
    rows = np.asarray(rows, dtype=np.uint32)
    out = np.zeros(rows.shape[:-1] + (1 << n,), dtype=np.uint32)
    for k in range(n):
        out[..., 1 << k: 2 << k] = out[..., : 1 << k] | rows[..., k, None]
    return out


def _factor_tables(n, lo, *lists):
    """For each list of n rows, the or_table of its rows of bits 0..lo-1
    and that of its rows of bits lo..n-1, all from one `or_table` pass:
    with lo <= n - lo, a low factor's rows are padded with zeros to n - lo
    and its table is the first 2^lo entries."""
    rows = np.zeros((len(lists), 2, n - lo), dtype=np.uint32)
    for r, row_list in zip(rows, lists):
        r[0, :lo] = row_list[:lo]
        r[1] = row_list[lo:]
    return [(t[0, :1 << lo], t[1]) for t in or_table(n - lo, rows)]


def _or_map(rows):
    """The map taking an array of masks to the OR of rows[k] over the bits
    k of each: one lookup in the or_table of each half of the rows."""
    h = len(rows) // 2
    (lo, hi), = _factor_tables(len(rows), h, rows)
    low, shift = np.uint32((1 << h) - 1), np.uint32(h)
    return lambda masks: lo[masks & low] | hi[masks >> shift]


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


def _subset_or(t):
    """In place, in n passes: t[m] becomes the OR of t[s] over s within m."""
    for i in range(len(t).bit_length() - 1):
        without, with_i = _bit_views(t, i)
        with_i |= without
    return t


class SubsetEngine:
    """Factor tables over n elements; semantics are filters over their join.

    rng = (rng_lo, rng_hi) and cl = (cl_lo, cl_hi): rng_lo[l] is the range
    of the low half l and rng_hi[h] that of the high half h << lo, both as
    n-bit masks, and cl likewise for the closure; lo is the log2 of the
    low tables' length. A set's range and closure are the OR of its
    halves' entries. closures[a]: a set defends a iff its range meets
    every mask in closures[a]. One unmet-mask test, `_unmet`, serves this
    defense and pBAF exhaustiveness.
    """

    def __init__(self, n, rng, cl, closures):
        self.n = n
        self.full = np.uint32((1 << n) - 1)
        self.rng_lo, self.rng_hi = rng
        self.cl_lo, self.cl_hi = cl
        self.lo = len(self.rng_lo).bit_length() - 1
        self.low = np.uint32((1 << self.lo) - 1)
        self.closures = closures

    def range_of(self, masks):
        """The elements each set attacks."""
        return (self.rng_lo[masks & self.low]
                | self.rng_hi[masks >> np.uint32(self.lo)])

    def candidate_masks(self, needs=None, fixed=None):
        """Conflict-free closed sets, in ascending order; given a pBAF's
        `premise_tables`, only those that `_join` cannot prove
        non-exhaustive; given fixed = (S*, rng(S*)) of `grounded_core`, only
        those holding S* and avoiding rng(S*)."""
        return self._join(conflict_free=True, closed=True, needs=needs,
                          fixed=fixed)

    def conflict_free_masks(self):
        return self._join(conflict_free=True, closed=False)

    def closed_masks(self):
        return self._join(conflict_free=False, closed=True)

    def _join(self, conflict_free, closed, needs=None, fixed=None):
        """The sets l | h, ascending, of a low half l and a high half h.

        Each half passes its own tests: conflict-free, it does not attack
        itself; closed, its closure adds no bit of its own factor. Each
        pair passes the cross tests: conflict-free, no half attacks a bit
        of the other (`avoid`: a half's range bits in the other factor);
        closed, each half's closure bits in the other factor (`need`) lie
        in the other half. With bits = avoid | need and key = half | need,
        a pair passes both iff (bits_l | bits_h) & (key_l ^ key_h) == 0,
        as long as no half's avoid and need meet; such a half is in no
        set that passes. Given `needs`, the `premise_tables` of a pBAF, a
        half's closure also takes E(half), the arguments whose every
        premise it holds: an exhaustive set holds E of each of its halves,
        so the same tests drop most non-exhaustive sets, and
        `exhaustive_flags` is left the exact test on the few that pass.
        Given `fixed`, (S*, rng(S*)) of `grounded_core` when only `co`,
        `gr` or `stb` is asked, S* joins each half's closure and rng(S*)
        its range in the same way, so a passing set holds S* and avoids
        rng(S*), and the pairs are those of far fewer halves.
        Halves and pairs are tested in blocks of at most JOIN_ENTRIES, so
        the temporaries stay small whatever the factors' sizes.
        """
        lows, lo_bits, lo_key = _factor_halves(
            self.rng_lo, self.cl_lo, 0, self.low, conflict_free, closed,
            needs, fixed)
        highs, hi_bits, hi_key = _factor_halves(
            self.rng_hi, self.cl_hi, self.lo, self.full ^ self.low,
            conflict_free, closed, needs, fixed)
        out = [np.zeros(0, dtype=np.uint32)]
        step = max(1, JOIN_ENTRIES // max(len(lows), 1))
        for s in range(0, len(highs), step):
            bad = hi_bits[s:s + step, None] | lo_bits
            bad &= hi_key[s:s + step, None] ^ lo_key
            h, l = np.divmod(np.flatnonzero(bad == 0), len(lows))
            out.append(highs[s + h] | lows[l])
        return np.concatenate(out)

    def grounded_core(self):
        """(S*, rng(S*)) as ints. S* is the least fixpoint of S ->
        cl(gamma(S)): both maps are monotone, so the sets grow from the
        empty set and stop within n + 1 steps, each one lookup in the
        range and closure tables and one defense test per element."""
        low = (1 << self.lo) - 1
        core = 0
        while True:
            rng = int(self.rng_lo[core & low] | self.rng_hi[core >> self.lo])
            defended = sum(1 << a for a, need in enumerate(self.closures)
                           if all(c & rng for c in need))
            grown = int(self.cl_lo[defended & low]
                        | self.cl_hi[defended >> self.lo])
            if grown == core:
                return core, rng
            core = grown

    def gamma(self, masks):
        """Defended-element mask for each set, closure-aware."""
        return self.full ^ _unmet(self.range_of(masks), self.closures)

    def admissible_flags(self, cand, g):
        return (cand & ~g) == 0

    def stable_masks(self, cand):
        """The candidates that attack every element outside them."""
        return cand[self.range_of(cand) == (self.full ^ cand)]

    def premise_tables(self, premises):
        """For each argument, the masks of the arguments holding each of its
        premises: a set covers its premises iff it meets every one."""
        holders = {}
        for a, ps in enumerate(premises):
            for p in ps:
                holders[p] = holders.get(p, 0) | 1 << a
        return [[holders[p] for p in ps] for ps in premises]

    def exhaustive_flags(self, cand, needs):
        """Sets already containing every argument their premises cover,
        `needs` being the `premise_tables`."""
        return (_unmet(cand, needs) | cand) == self.full


def _unmet(masks, needs):
    """For each mask, the elements a with some mask in needs[a] it does not
    meet. A block of masks is tested against every distinct needed mask at
    once, at most JOIN_ENTRIES (needed mask, set) pairs: one AND, one test
    for zero, one product with the bits of the elements needing each mask
    and one OR down the needed masks."""
    bits = {}
    for a, need in enumerate(needs):
        for c in need:
            bits[c] = bits.get(c, 0) | 1 << a
    needed = np.array(list(bits), dtype=np.uint32)[:, None]
    needers = np.array(list(bits.values()), dtype=np.uint32)[:, None]
    out = np.zeros(len(masks), dtype=np.uint32)
    step = max(1, JOIN_ENTRIES // max(len(bits), 1))
    # one buffer for every block: a fresh one per block took 15-20% longer
    # on lists of one to five blocks
    block = np.empty((len(bits), min(step, len(masks))), dtype=np.uint32)
    for s in range(0, len(masks), step):
        m = masks[s:s + step]
        buf = block[:, :len(m)]
        np.bitwise_and(needed, m, out=buf)
        np.equal(buf, 0, out=buf, casting="unsafe")  # 0/1, times the bits
        buf *= needers
        np.bitwise_or.reduce(buf, axis=0, out=out[s:s + step])
    return out


def _factor_halves(rng, cl, shift, part, conflict_free, closed, needs=None,
                   fixed=None):
    """The halves of one factor (bits `part`, from bit `shift` up) that
    pass their own tests, with their bits and keys (see `_join`). Given
    fixed = (S*, rng(S*)), S* joins each half's closure and rng(S*) its
    range, so the closed and conflict-free tests enforce them."""
    out = []
    for s in range(0, len(rng), JOIN_ENTRIES):
        r, c = rng[s:s + JOIN_ENTRIES], cl[s:s + JOIN_ENTRIES]
        half = np.arange(s, s + len(r), dtype=np.uint32) << np.uint32(shift)
        if needs is not None:  # E(half), within the n argument bits
            c = c | (np.uint32((1 << len(needs)) - 1) ^ _unmet(half, needs))
        if fixed is not None:
            c, r = c | np.uint32(fixed[0]), r | np.uint32(fixed[1])
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

def row_engine(n, rng1, cl1, rng0=0, cl0=0):
    """Engine over n elements whose range and closure distribute over union:
    a set's are the OR of the empty set's rows rng0 and cl0 and of rng1[b]
    and cl1[b] over its members b. closures[a] lists the sorted distinct
    closures of the minimal sets whose range holds a: ∅ if rng0 does, else
    each {b} with a in rng1[b]."""
    (rng_lo, rng_hi), (cl_lo, cl_hi) = _factor_tables(n, n // 2, rng1, cl1)
    rng_lo |= np.uint32(rng0)
    cl_lo |= np.uint32(cl0)
    attackers = [set() for _ in range(n)]  # cl1[b] for each b attacking a
    for c, r in zip(cl1, rng1):
        while r:
            attackers[(r & -r).bit_length() - 1].add(c)
            r &= r - 1
    closures = [[cl0] if rng0 >> a & 1 else sorted(cs)
                for a, cs in enumerate(attackers)]
    return SubsetEngine(n, (rng_lo, rng_hi), (cl_lo, cl_hi), closures)


def baf_engine(n, att_pairs, sup_pairs):
    """`row_engine` of a BAF: an argument's rows are its attacks and its
    support closure."""
    _check_size("argument count", n)
    att_rows = [0] * n
    for s, t in att_pairs:
        att_rows[s] |= 1 << t
    return row_engine(n, att_rows, single_closures(n, sup_pairs))


def forward_chain(th, rules):
    """Close bool theory rows, one per atom and one column per assumption
    set, under the rules, (head, body) atom indices, in place: a rule sets
    th[head] |= AND of th[body] in all columns at once, a fact its whole
    row. A rule is applied once every row of its body has a true entry,
    and again each time one of those rows grows."""
    users = [[] for _ in range(len(th))]
    for r, (_, body) in enumerate(rules):
        for b in set(body):
            users[b].append(r)
    live = th.any(axis=1).tolist()
    todo = deque(range(len(rules)))
    while todo:
        h, body = rules[todo.popleft()]
        if not all(live[b] for b in body):
            continue
        new = ~th[h]
        for b in body:
            new &= th[b]
        if new.any():
            th[h] |= new
            live[h] = True
            todo.extend(u for u in users[h] if u not in todo)
    return th


def row_masks(rows):
    """The int mask of each column of bool rows, row i giving bit i."""
    packed = np.packbits(rows, axis=0, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed.T]


def theory_tables(k, n_atoms, rules, contrary):
    """cl and rng of every assumption mask, by `forward_chain`.

    Atoms 0..k-1 are the assumptions, in mask bit order; rules are
    (head, body) atom indices; contrary[i] is the atom index of the
    contrary of assumption i. Masks are chained in blocks of CHAIN_BYTES
    of theory rows, so any number of atoms fits; the rows of the low mask
    bits, the same in every block, are built once.
    """
    _check_size("assumption count", k)
    derived = sorted({h for h, _ in rules if h < k})
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
        forward_chain(th, rules)
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
    closures = [sorted(set(cl[derivers[(targets >> np.uint32(a)) & 1 == 1]].tolist()))
                for a in range(k)]
    empty = np.zeros(1, dtype=np.uint32)  # the high factor: no bits
    return SubsetEngine(k, (rng, empty), (cl, empty), closures)


def atomic_aba_engine(k, n_atoms, rules, contrary):
    """`aba_engine` of an atomic framework (no rule body of two atoms) as a
    `row_engine`: derivations are chains, so Th(S) is Th(∅) joined with the
    Th({b}), b in S, all from one `forward_chain` over {j}, j < k, and ∅."""
    _check_size("assumption count", k)
    th = np.zeros((n_atoms, k + 1), dtype=bool)
    th[:k, :k] = np.eye(k, dtype=bool)
    forward_chain(th, rules)
    cl1, rng1 = row_masks(th[:k]), row_masks(th[contrary])
    return row_engine(k, rng1[:k], cl1[:k], rng1[k], cl1[k])


# ----------------------------------------------------------------- filters

def families(frame, names):
    """The extension masks of each semantics in `names` over a Baf, a Pbaf
    or an AbaFramework, by name. The names are checked before the engine
    is built, once; the candidate join, `gamma` and a Pbaf's exhaustiveness
    filter run at most once, `stb` on the same candidates, and only what
    the names need comes after. Each restriction of the join names the row
    of the inclusion table (tests/test_inclusions.py) it rests on:

    - Unless `stb` is asked, a Pbaf's premise tables go to the join, which
      drops most non-exhaustive candidates before the exact filter and
      `gamma`; `stb` takes the plain join, as "stb ⊆ ad" fails for a Pbaf.
    - When every name is `co`, `gr` or `stb`, the join takes (S*, rng(S*))
      of `grounded_core` as fixed bits, by "every co and stb set holds S*
      and avoids rng(S*)", true of every kind: a `co` set E is closed with
      gamma(E) = E, so by monotony S* lies in E and rng(S*) outside it. So
      when S* attacks itself, `co` and `stb` are empty and `gr` is {∅}
      without a join. `gr` stays the meet of `co`: "gr = {S*} when co ≠ ∅"
      fails.
    - With `ad`, `pr` or `cf` the join stays plain: "S* ⊆ every pr set"
      and "pr ⊆ co" fail.
    """
    for s in names:
        if s not in SEMANTICS:
            raise ValueError(f"unknown semantics {s!r}")
    want = set(names)
    eng = frame.engine()
    out = {}
    needs = fixed = None
    if want and want <= {"co", "gr", "stb"}:
        fixed = eng.grounded_core()
        if fixed[0] & fixed[1]:  # S* attacks itself: no co set, so no stb set
            none = np.zeros(0, dtype=np.uint32)
            out = {"co": none, "stb": none,
                   "gr": np.array([0], dtype=np.uint32)}
            return {s: out[s] for s in names}
    if hasattr(frame, "premises") and want & {"ad", "co", "gr", "pr"}:
        needs = eng.premise_tables(frame.premises)
    if want & {"ad", "co", "gr", "pr", "stb"}:
        # a pBAF's stable sets are its BAF's: `stb` takes the plain join
        cand = eng.candidate_masks(None if "stb" in want else needs, fixed)
    if "stb" in want:
        out["stb"] = eng.stable_masks(cand)
    if want & {"ad", "co", "gr", "pr"}:
        if needs is not None:
            cand = cand[eng.exhaustive_flags(cand, needs)]
        g = eng.gamma(cand)
        if want & {"ad", "pr"}:
            out["ad"] = cand[eng.admissible_flags(cand, g)]
        if want & {"co", "gr"}:
            out["co"] = cand[cand == g]
        del cand, g  # whole-family arrays, freed before maximality and the joins
    if "pr" in want:
        out["pr"] = maximal_masks(out["ad"], eng.n)
    if "gr" in want:
        co = out["co"]
        least = np.bitwise_and.reduce(co, initial=eng.full) if len(co) else 0
        out["gr"] = np.array([least], dtype=np.uint32)
    if "cf" in want:
        out["cf"] = eng.conflict_free_masks()
    return {s: out[s] for s in names}


def closed_set_defends(eng, attacked, a):
    """Defense by the definition: every closed set that attacks element a
    meets `attacked`, the mask of what the defending set attacks."""
    closed = eng.closed_masks()
    attackers = closed[(eng.range_of(closed) >> np.uint32(a)) & 1 == 1]
    return bool(np.all(attackers & np.uint32(attacked)))


def closed_set_gamma(eng, rng):
    """`closed_set_defends` of all sets S at once, from their ranges rng: S
    leaves undefended what the closed sets within full ^ rng[S] attack, the
    OR F[full ^ rng[S]] after one `_subset_or` of F[T] = rng[T], T closed."""
    closed = eng.closed_masks()
    f = np.zeros(1 << eng.n, dtype=np.uint32)
    f[closed] = rng[closed]
    del closed
    return _subset_or(f)[eng.full ^ rng] ^ eng.full


def _superset_or(src, n, dst=None):
    """On a table of one bit per set m over n bits, bit m & 63 of 64-bit
    word m >> 6. With dst None, in place: set m becomes the OR of the sets
    containing m. Given dst: dst's set m is OR-ed with src's sets m | b,
    b a bit not in m. Bits 0..5 of m index within a word, where shifting
    right by 2^i moves each set with bit i onto the set without it, and
    the word (2^64 - 1) / (2^2^i + 1), 0x5555... for bit 0, keeps the
    sets without it; bits 6..n-1 index the words, as in `_subset_or`."""
    dst = src if dst is None else dst
    for i in range(min(n, 6)):
        low = np.uint64(((1 << 64) - 1) // ((1 << (1 << i)) + 1))
        dst |= (src >> np.uint64(1 << i)) & low
    for i in range(6, n):
        without = _bit_views(dst, i - 6)[0]
        without |= _bit_views(src, i - 6)[1]
    return dst


def maximal_masks(masks, n):
    """Drop every mask that has a strict superset in the list; masks are
    over n bits and keep their order.

    A list of up to sqrt(PAIRWISE_LIMIT + 2^n) masks is compared
    pairwise, the cheaper route there. Otherwise the listed masks are
    marked in a table of 2^n bits, 64 to a word; `_superset_or` turns it
    into S[m], some listed mask contains m, and S into X[m], some S[m | b]
    with b not in m, that is some listed mask strictly contains m; each
    mask then reads its bit of X. That is 2n passes over 2^n / 64 words
    whatever the list's length. Both routes test the list in blocks of at
    most JOIN_ENTRIES pairs or masks. `_subset_or` is left to closed-set
    defense, whose table holds uint32 masks, not bits.
    """
    masks = np.asarray(masks, dtype=np.uint32)
    keep = np.empty(len(masks), dtype=bool)
    if len(masks) ** 2 <= PAIRWISE_LIMIT + (1 << n):
        lacks = ~masks
        step = max(1, JOIN_ENTRIES // max(len(masks), 1))
        for s in range(0, len(masks), step):
            m = masks[s:s + step, None]
            strict = (m & lacks) == 0
            strict &= m != masks
            np.logical_not(strict.any(axis=1), out=keep[s:s + step])
        return masks[keep]
    table = np.zeros(max(1 << n, 64), dtype=bool)
    table[masks] = True
    listed = np.packbits(table, bitorder="little").view("<u8")
    del table
    _superset_or(listed, n)
    bits = _superset_or(listed, n, np.zeros_like(listed)).view(np.uint8)
    for s in range(0, len(masks), JOIN_ENTRIES):
        m = masks[s:s + JOIN_ENTRIES]
        byte = bits[m >> np.uint32(3)]
        byte >>= (m & np.uint32(7)).astype(np.uint8)
        np.equal(byte & np.uint8(1), 0, out=keep[s:s + JOIN_ENTRIES])
    return masks[keep]


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
    for shift in range(0, n, 8):
        byte = (m >> shift) & 255
        r |= _REVERSED_BYTE[byte] << (24 - shift)
        k += _BYTE_BITS[byte]
    r >>= 32 - n
    return np.where(m == 0, 0, (1 << n) + k - r - (r & -r))


def _dictionary_order(masks, labels, order):
    """The masks in the order `mask_sets` lists them, and the labels in
    bit order: `order` moves bit order[j] of each mask to bit j."""
    masks = np.asarray(masks, dtype=np.uint32)
    if order is not None:
        rows = [0] * len(order)  # rows[i]: where bit i goes
        for j, i in enumerate(order):
            rows[i] = 1 << j
        masks = _or_map(rows)(masks)
        labels = [labels[i] for i in order]
    rank = _dictionary_rank(masks, len(labels))
    return masks[np.argsort(rank, kind="stable")], labels


def _fragments(values, units, empty):
    """(ids, table) with table[ids[i]] the concatenation of units[j] over
    the bits j of values[i], in bit order, `empty` for no bit; value 0 has
    id 0. Up to 6 bits the table holds every value, built by doubling;
    wider values are made distinct and each is one concatenation of its
    `_halves`, however many masks share it."""
    if len(units) <= 6:
        table = [empty]
        for u in units:
            table += [t + u for t in table]
        return values, np.fromiter(table, dtype=object, count=len(table))
    seen = np.zeros(1 << len(units), dtype=bool)
    seen[values] = True
    seen[0] = True
    found = np.flatnonzero(seen)
    index = np.empty(len(seen), dtype=np.intp)
    index[found] = np.arange(len(found))
    lo_ids, lo, hi_ids, hi = _halves(found, units, empty)
    return index[values], lo[lo_ids] + hi[hi_ids]


def _halves(values, units, empty):
    """`_fragments` of the low half (the first len(units) // 2 bits) and
    of the high half of every value: lo_ids, lo, hi_ids, hi."""
    h = len(units) // 2
    return (*_fragments(values & ((1 << h) - 1), units[:h], empty),
            *_fragments(values >> h, units[h:], empty))


def mask_text(masks, labels, sep, between, order=None):
    """between.join("[" + sep.join(m) + "]" for m in M), M the masks'
    member tuples in `mask_sets` order (bits taken in `order`, a list of
    all bit indices, when given), for string labels, made without a string
    per mask: the text of each distinct half is built once, and the halves
    of all masks are gathered into one array of fragments and joined once."""
    masks, labels = _dictionary_order(masks, labels, order)
    lo_ids, lo, hi_ids, hi = _halves(masks, [sep + x for x in labels], "")
    # every fragment starts with sep: the low half drops it after "[", and
    # so does the high half after an empty low half (id 0), which takes
    # the second copy of the high table
    cut, k = len(sep), len(hi)
    lo = [between + "[" + f[cut:] for f in lo.tolist()]
    hi = [f + "]" for f in hi.tolist()] + [f[cut:] + "]" for f in hi.tolist()]
    parts = np.empty(2 * len(masks), dtype=object)
    parts[0::2] = np.fromiter(lo, dtype=object, count=len(lo))[lo_ids]
    parts[1::2] = np.fromiter(hi, dtype=object, count=2 * k)[
        hi_ids + k * (lo_ids == 0)]
    if len(parts):
        parts[0] = parts[0][len(between):]
    return "".join(parts.tolist())


def mask_sets(masks, labels):
    """The frozensets of labels the masks stand for (bit i is labels[i]),
    ordered by their sorted bit tuples, a prefix first. Each set is made
    from one concatenation of its halves' member tuples."""
    masks, labels = _dictionary_order(masks, labels, None)
    lo_ids, lo, hi_ids, hi = _halves(masks, [(x,) for x in labels], ())
    return [frozenset(t) for t in (lo[lo_ids] + hi[hi_ids]).tolist()]


def decide(frame, task, semantics, query=None, classic=False):
    """The one route from a request to an answer, over a Baf, a Pbaf or an
    AbaFramework.

    enumerate: the extension masks. cred: the query is in some extension.
    skept: in every extension (vacuously true when there are none). ver:
    the query set is an extension. The task, `classic` (a plain Baf's
    independent Dung scan, `dung_masks`), the query's type and each query
    item, by `frame.resolve`, are checked before any engine is built.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "ver" and isinstance(query, str):
        raise TypeError("a ver query is a collection of members, not a str")
    if task in ("cred", "skept") and isinstance(query, (list, tuple, set, frozenset)):
        raise TypeError(f"a {task} query is one member, not a collection")
    if classic and not hasattr(frame, "dung_masks"):
        raise SolverError("classic Dung semantics apply to plain BAF files")
    if task != "enumerate":
        items = query if task == "ver" else [query]
        target = np.uint32(sum({1 << frame.resolve(x) for x in items}))
    found = (frame.dung_masks(semantics) if classic
             else families(frame, (semantics,))[semantics])
    if task == "enumerate":
        return found
    if task == "ver":
        return bool(np.any(found == target))
    hit = found & target
    return bool(hit.any() if task == "cred" else hit.all())
