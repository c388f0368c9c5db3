"""Bipolar argumentation frameworks with deductive support, their
premise-augmented variant, and plain Dung frameworks for the support-free
degenerate case.

Accepting an argument forces accepting everything it supports, so every
semantics here works with closed sets and defense counter-attacks the
closure of an attacker.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import masks
from .errors import ParseError, SupportsPresent, TooLarge
from .masks import DEFENSE_MODES, SEMANTICS
from .textio import check_names, decimal, directives, index, nonneg, put_once

AF_LIMIT = 16


@dataclass
class Baf:
    """n arguments 0..n-1, attack edges, support edges, display names."""

    n: int
    att: list = field(default_factory=list)
    sup: list = field(default_factory=list)
    names: list = field(default_factory=list)

    def __post_init__(self):
        self.att = [(int(s), int(t)) for s, t in self.att]
        self.sup = [(int(s), int(t)) for s, t in self.sup]
        for s, t in self.att + self.sup:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"edge ({s},{t}) out of range")
        if not self.names:
            self.names = [str(i) for i in range(self.n)]
        check_names(self.names)
        if len(self.names) != self.n:
            raise ValueError("need one name per argument")
        if len(set(self.names)) != self.n:
            raise ValueError("duplicate argument names")
        self._name_ix = {nm: i for i, nm in enumerate(self.names)}

    def engine(self):
        """The subset engine over all argument sets."""
        return masks.baf_engine(self.n, self.att, self.sup)

    def dung_masks(self, semantics):
        """The masks of `af_extensions`, the textbook Dung scan."""
        return np.array(_af_masks(self, semantics), dtype=np.uint32)

    def resolve(self, ref):
        """Accept an argument name or a numeric id."""
        if isinstance(ref, (int, np.integer)):
            i = int(ref)
        elif ref in self._name_ix:
            return self._name_ix[ref]
        elif isinstance(ref, str) and decimal(ref):
            i = int(ref)
        else:
            raise KeyError(f"unknown argument {ref!r}")
        if not 0 <= i < self.n:
            raise KeyError(f"argument id {i} out of range")
        return i


@dataclass
class Pbaf:
    """A BAF whose arguments carry premise sets.

    premises[i] is a frozenset of premise ids, all below premise_bound.
    """

    baf: Baf
    premises: list = field(default_factory=list)
    premise_bound: int = 0

    def __post_init__(self):
        if len(self.premises) != self.baf.n:
            raise ValueError("need one premise set per argument")
        self.premises = [frozenset(int(p) for p in ps) for ps in self.premises]
        for ps in self.premises:
            for p in ps:
                if not 0 <= p < self.premise_bound:
                    raise ValueError(f"premise id {p} out of range")

    def engine(self):
        """The subset engine of the underlying BAF."""
        return self.baf.engine()

    def resolve(self, ref):
        """An argument of the underlying BAF, by name or numeric id."""
        return self.baf.resolve(ref)


# ------------------------------------------------------------- set algebra

def baf_closure(frame: Baf, ext):
    """Least superset closed under outgoing support edges."""
    cur = {frame.resolve(x) for x in ext}
    changed = True
    while changed:
        changed = False
        for s, t in frame.sup:
            if s in cur and t not in cur:
                cur.add(t)
                changed = True
    return frozenset(cur)


def attack_range(frame: Baf, ext):
    """All arguments attacked by the set."""
    members = {frame.resolve(x) for x in ext}
    return frozenset(t for s, t in frame.att if s in members)


def baf_defends(frame: Baf, ext, arg, mode="attacker-closure"):
    """Closure-aware defense of one argument by a set.

    attacker-closure: for each attacker b of the argument, the set attacks
    the closure of {b}. closed-sets: every closed set attacking the
    argument is attacked; exponential, kept for cross-checking.
    """
    if mode not in DEFENSE_MODES:
        raise ValueError(f"unknown defense mode {mode!r}")
    rng = attack_range(frame, ext)
    a = frame.resolve(arg)
    if mode == "closed-sets":
        return masks.closed_set_defends(frame.engine(), sum(1 << t for t in rng), a)
    return all(rng & baf_closure(frame, {b}) for b, t in frame.att if t == a)


def characteristic(frame: Baf, ext):
    """All arguments the set defends."""
    return frozenset(a for a in range(frame.n)
                     if baf_defends(frame, ext, a))


def is_exhaustive(pframe: Pbaf, ext):
    """Does the set contain every argument its own premises can build?"""
    members = {pframe.baf.resolve(x) for x in ext}
    pool = set()
    for i in members:
        pool |= pframe.premises[i]
    return all(i in members
               for i in range(pframe.baf.n) if pframe.premises[i] <= pool)


# ------------------------------------------------------------- enumeration

def baf_extensions(frame, semantics):
    """Enumerate extensions under the closed-set semantics: `baf_decide`'s
    enumerate task, so a Pbaf's are its premise-aware ones."""
    return baf_decide(frame, "enumerate", semantics)


def pbaf_extensions(pframe, semantics):
    """Premise-aware extensions, `baf_decide`'s enumerate task.

    Admissibility additionally requires exhaustiveness; stable and
    conflict-free sets are taken from the underlying BAF unchanged.
    """
    return baf_decide(pframe, "enumerate", semantics)


def af_extensions(frame: Baf, semantics):
    """Textbook Dung semantics for support-free frameworks, `baf_decide`'s
    enumerate task with `classic`.

    Implemented independently of the closed-set machinery (plain subset
    scan, attacker-wise defense, grounded as the least complete set) so the
    two routes can be compared on degenerate inputs.
    """
    return baf_decide(frame, "enumerate", semantics, classic=True)


def _af_masks(frame: Baf, semantics):
    if frame.sup:
        raise SupportsPresent("framework has support edges")
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    n = frame.n
    if n > AF_LIMIT:
        raise TooLarge("argument count", n, AF_LIMIT)
    atts = frame.att
    attackers = [set() for _ in range(n)]
    for s, t in atts:
        attackers[t].add(s)

    def members(m):
        return {i for i in range(n) if m >> i & 1}

    def cf(ms):
        return not any(s in ms and t in ms for s, t in atts)

    def defends(ms, a):
        return all(any(x in attackers[b] for x in ms) for b in attackers[a])

    if semantics == "cf":
        return [m for m in range(1 << n) if cf(members(m))]
    if semantics == "stb":
        out = []
        for m in range(1 << n):
            ms = members(m)
            rng = {t for s, t in atts if s in ms}
            if not ms & rng and rng == set(range(n)) - ms:
                out.append(m)
        return out
    admissible = []
    complete = []
    for m in range(1 << n):
        ms = members(m)
        if not cf(ms):
            continue
        if all(defends(ms, a) for a in ms):
            admissible.append(m)
            if all(a in ms for a in range(n) if defends(ms, a)):
                complete.append(m)
    if semantics == "ad":
        return admissible
    if semantics == "co":
        return complete
    if semantics == "gr":
        return [m for m in complete
                if not any(o != m and o & ~m == 0 for o in complete)]
    return [m for m in admissible
            if not any(o != m and m & ~o == 0 for o in admissible)]


# ----------------------------------------------------------------- tasks

def baf_decide(frame, task, semantics, query=None, classic=False):
    """Credulous / skeptical / verification tasks over one semantics, by
    `masks.decide`.

    `frame` may be a Baf or a Pbaf; `classic` takes only a Baf. Skeptical
    acceptance over an empty family is vacuously true. The engine route
    takes as many arguments as its size guard allows; the classic route,
    a plain scan, only up to AF_LIMIT.
    """
    result = masks.decide(frame, task, semantics, query, classic)
    n = frame.baf.n if isinstance(frame, Pbaf) else frame.n
    return masks.mask_sets(result, range(n)) if task == "enumerate" else result


# ---------------------------------------------------------------- text io

def parse_baf(text):
    """Read the line-oriented BAF format.

    p baf <n>       header, arguments are 0..n-1
    att <i> <j>     i attacks j
    sup <i> <j>     i supports j
    name <i> <s>    optional display name
    # ...           comment; 'arg' annotation lines are ignored
    """
    return _parse_graph(text, "baf")


def parse_pbaf(text):
    """Like parse_baf plus a premise bound and 'prem <i> <p...>' lines."""
    return _parse_graph(text, "pbaf")


def _parse_graph(text, kind):
    # bound: [the premise bound] of a pBAF, [] of a BAF
    _, (n, *bound), lines = directives(text, (kind,), skip=("arg",))
    att, sup = [], []
    names = {}
    prem = {}
    for lineno, parts, line in lines:
        if parts[0] in ("att", "sup"):
            if len(parts) != 3:
                raise ParseError(f"expected '{parts[0]} <i> <j>'", lineno)
            edge = (_arg_id(parts[1], n, lineno), _arg_id(parts[2], n, lineno))
            (att if parts[0] == "att" else sup).append(edge)
        elif parts[0] == "name":
            if len(parts) < 3:
                raise ParseError("expected 'name <i> <s>'", lineno)
            put_once(names, _arg_id(parts[1], n, lineno),
                     line.split(None, 2)[2], lineno, "argument {} already has a name")
        elif parts[0] == "prem" and bound:
            if len(parts) < 2:
                raise ParseError("expected 'prem <i> <p...>'", lineno)
            i = _arg_id(parts[1], n, lineno)
            vals = [nonneg(p, lineno) for p in parts[2:]]
            for v in vals:
                if v >= bound[0]:
                    raise ParseError(f"premise id {v} not below bound {bound[0]}",
                                     lineno)
            put_once(prem, i, vals, lineno, "argument {} already has premises")
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    try:
        baf = Baf(n, att, sup, [names.get(i, str(i)) for i in range(n)])
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return Pbaf(baf, [prem.get(i, ()) for i in range(n)], *bound) if bound else baf


def _arg_id(token, n, lineno):
    return index(nonneg(token, lineno), 0, n - 1, "argument", lineno)


def format_baf(frame: Baf, annotations=()):
    return _format_graph(f"p baf {frame.n}", frame, annotations)


def format_pbaf(pframe: Pbaf, annotations=()):
    prem = ["prem %d %s" % (i, " ".join(str(p) for p in sorted(ps)))
            for i, ps in enumerate(pframe.premises) if ps]
    return _format_graph(f"p pbaf {pframe.baf.n} {pframe.premise_bound}",
                         pframe.baf, annotations, prem)


def _format_graph(header, frame, annotations, prem=()):
    out = [header]
    out.extend(f"# {note}" for note in annotations)
    out.extend(f"att {s} {t}" for s, t in frame.att)
    out.extend(f"sup {s} {t}" for s, t in frame.sup)
    out.extend(prem)
    out.extend(f"name {i} {nm}" for i, nm in enumerate(frame.names)
               if nm != str(i))
    return "\n".join(out) + "\n"
