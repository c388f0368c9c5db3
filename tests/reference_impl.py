"""Naive definitional implementations used to cross-check the package.

Everything here is a direct powerset scan over frozensets, reading only the
data fields of the framework objects, never their solver methods. Slow on
purpose; keep inputs small.
"""
from itertools import chain, combinations, product


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r)
                               for r in range(len(items) + 1))


# ------------------------------------------------------------------- ABA

def naive_arguments(frame):
    """The (support, conclusion) pairs of all derivation trees, in the
    order `enumerate_arguments` documents. A tree is an assumption leaf, or
    a rule whose every body occurrence, a repeated atom once per
    occurrence, roots a subtree; a fact roots a tree with no subtree. Trees
    grow one height at a time until a height adds no pair."""
    found = {(frozenset([a]), a) for a in frame.assumptions}
    while True:
        grown = set(found)
        for head, body in frame.rules:
            subtrees = [[s for s, c in found if c == b] for b in body]
            for pick in product(*subtrees):
                grown.add((frozenset(chain.from_iterable(pick)), head))
        if grown == found:
            break
        found = grown
    bases = [(frozenset([a]), a) for a in frame.assumptions]
    pos = {p: i for i, p in enumerate(frame.atoms)}
    rest = sorted(found - set(bases),
                  key=lambda sc: (pos[sc[1]], sorted(pos[x] for x in sc[0])))
    return bases + rest


def aba_theory(frame, base):
    cur = set(base)
    changed = True
    while changed:
        changed = False
        for head, body in frame.rules:
            if set(body) <= cur and head not in cur:
                cur.add(head)
                changed = True
    return frozenset(cur)


def aba_cl(frame, base):
    return aba_theory(frame, base) & frozenset(frame.assumptions)


def aba_att(frame, source, target):
    th = aba_theory(frame, source)
    return any(frame.contrary[a] in th for a in target)


def _aba_closed_sets(frame):
    return [frozenset(t) for t in powerset(frame.assumptions)
            if aba_cl(frame, frozenset(t)) == frozenset(t)]


def aba_defends(frame, defender, assumption):
    for closed in _aba_closed_sets(frame):
        if aba_att(frame, closed, {assumption}) and not aba_att(frame, defender, closed):
            return False
    return True


def naive_aba_extensions(frame, sigma):
    asms = frozenset(frame.assumptions)
    if sigma == "gr":
        complete = naive_aba_extensions(frame, "co")
        inter = asms
        for ext in complete:
            inter &= ext
        return [inter] if complete else [frozenset()]
    out = []
    for tup in powerset(frame.assumptions):
        cand = frozenset(tup)
        if aba_att(frame, cand, cand):
            continue
        if sigma == "cf":
            out.append(cand)
            continue
        closed = aba_cl(frame, cand) == cand
        if sigma == "stb":
            if closed and all(aba_att(frame, cand, {x}) for x in asms - cand):
                out.append(cand)
            continue
        if not closed:
            continue
        admissible = all(aba_defends(frame, cand, a) for a in cand)
        if sigma == "ad" and admissible:
            out.append(cand)
        elif sigma == "co" and admissible and all(
                a in cand for a in asms if aba_defends(frame, cand, a)):
            out.append(cand)
    if sigma == "pr":
        adm = naive_aba_extensions(frame, "ad")
        out = [e for e in adm if not any(e < o for o in adm)]
    return out


# ------------------------------------------------------------------- BAF

def baf_cl(frame, ext):
    cur = set(ext)
    changed = True
    while changed:
        changed = False
        for s, t in frame.sup:
            if s in cur and t not in cur:
                cur.add(t)
                changed = True
    return frozenset(cur)


def baf_rng(frame, ext):
    return frozenset(t for s, t in frame.att if s in ext)


def baf_att(frame, source, target):
    return any(s in source and t in target for s, t in frame.att)


def baf_defends(frame, ext, arg):
    for b, t in frame.att:
        if t == arg and not baf_att(frame, ext, baf_cl(frame, {b})):
            return False
    return True


def naive_gamma(frame, ext):
    return frozenset(a for a in range(frame.n) if baf_defends(frame, ext, a))


def naive_baf_extensions(frame, sigma):
    if sigma == "gr":
        complete = naive_baf_extensions(frame, "co")
        inter = frozenset(range(frame.n))
        for ext in complete:
            inter &= ext
        return [inter] if complete else [frozenset()]
    out = []
    for tup in powerset(range(frame.n)):
        cand = frozenset(tup)
        if cand & baf_rng(frame, cand):
            continue
        if sigma == "cf":
            out.append(cand)
            continue
        closed = baf_cl(frame, cand) == cand
        if sigma == "stb":
            if closed and baf_rng(frame, cand) == frozenset(range(frame.n)) - cand:
                out.append(cand)
            continue
        if not closed:
            continue
        g = naive_gamma(frame, cand)
        if sigma == "ad" and cand <= g:
            out.append(cand)
        elif sigma == "co" and cand == g:
            out.append(cand)
    if sigma == "pr":
        adm = naive_baf_extensions(frame, "ad")
        out = [e for e in adm if not any(e < o for o in adm)]
    return out


def naive_exhaustive(pframe, ext):
    pool = set()
    for i in ext:
        pool |= pframe.premises[i]
    return all(i in ext for i in range(pframe.baf.n)
               if pframe.premises[i] <= pool)


def naive_pbaf_extensions(pframe, sigma):
    frame = pframe.baf
    if sigma in ("cf", "stb"):
        return naive_baf_extensions(frame, sigma)
    if sigma == "gr":
        complete = naive_pbaf_extensions(pframe, "co")
        inter = frozenset(range(frame.n))
        for ext in complete:
            inter &= ext
        return [inter] if complete else [frozenset()]
    adm = [e for e in naive_baf_extensions(frame, "ad")
           if naive_exhaustive(pframe, e)]
    if sigma == "ad":
        return adm
    if sigma == "pr":
        return [e for e in adm if not any(e < o for o in adm)]
    return [e for e in adm if e == naive_gamma(frame, e)]


def family(extensions):
    return sorted(sorted(e) for e in extensions)
