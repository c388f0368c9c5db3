"""Assumption-based argumentation without the flatness restriction.

Assumptions may occur in rule heads, so a set of assumptions is not
automatically closed under derivation. All semantics below therefore work
with closed conflict-free sets and with the closure-aware notion of defense.
Extensions come from the subset engine in `masks`, the same filters the
(p)BAF semantics use, over tables indexed by assumption sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import masks
from .errors import CapExceeded, NotAnAssumption, ParseError
from .masks import DEFENSE_MODES
from .textio import directives, index, integer

ARGUMENT_CAP = 5000


@dataclass(frozen=True)
class Argument:
    """A deduction, recorded as its leaf assumptions plus the conclusion.

    Two derivation trees with the same leaves and conclusion count as the
    same argument.
    """

    support: frozenset
    conclusion: str

    def __str__(self):
        inner = ",".join(sorted(self.support))
        return "({%s},%s)" % (inner, self.conclusion)


class AbaFramework:
    """An ABA framework over named atoms.

    atoms: all sentence names, in a fixed order.
    assumptions: the defeasible atoms (kept in atom order).
    contrary: maps every assumption to some atom.
    rules: (head, body) pairs, the body being a collection of atoms.
    """

    def __init__(self, atoms, assumptions, contrary, rules):
        self.atoms = list(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("duplicate atom names")
        self._atom_ix = {p: i for i, p in enumerate(self.atoms)}
        asm = set(assumptions)
        for a in asm:
            if a not in self._atom_ix:
                raise ValueError(f"assumption {a!r} is not an atom")
        self.assumptions = [p for p in self.atoms if p in asm]
        self.contrary = dict(contrary)
        for a in self.assumptions:
            if a not in self.contrary:
                raise ValueError(f"assumption {a!r} has no contrary")
            if self.contrary[a] not in self._atom_ix:
                raise ValueError(f"contrary of {a!r} is not an atom")
        for a in self.contrary:
            if a not in asm:
                raise NotAnAssumption(f"{a!r} has a contrary but is not an assumption")
        self.rules = []
        for head, body in rules:
            if head not in self._atom_ix:
                raise ValueError(f"rule head {head!r} is not an atom")
            body = tuple(body)
            for b in body:
                if b not in self._atom_ix:
                    raise ValueError(f"rule body atom {b!r} is not an atom")
            self.rules.append((head, body))

        # Integer encoding used by every operation below: atom bit i is
        # assumption i for i < k, so an assumption mask is its own atom
        # mask and the closure is the theory's low k bits.
        self._asm_ix = {a: i for i, a in enumerate(self.assumptions)}
        self._bit_atoms = self.assumptions + [p for p in self.atoms if p not in asm]
        bit = {p: i for i, p in enumerate(self._bit_atoms)}
        self._rules_ix = [(bit[h], tuple(bit[b] for b in body))
                          for h, body in self.rules]
        self._contrary_ix = [bit[self.contrary[a]] for a in self.assumptions]
        self._rule_bits = [(1 << h, sum(1 << b for b in set(body)))
                           for h, body in self._rules_ix]
        self._arg_memo = {}

    def __eq__(self, other):
        if not isinstance(other, AbaFramework):
            return NotImplemented
        return (self.atoms == other.atoms
                and self.assumptions == other.assumptions
                and self.contrary == other.contrary
                and self.rules == other.rules)

    def __repr__(self):
        return (f"AbaFramework({len(self.atoms)} atoms, "
                f"{len(self.assumptions)} assumptions, {len(self.rules)} rules)")

    def engine(self):
        """The subset engine over all assumption sets."""
        return masks.aba_engine(len(self.assumptions), len(self.atoms),
                                self._rules_ix, self._contrary_ix)

    # mask helpers ----------------------------------------------------

    def resolve(self, name):
        """The bit index of an assumption."""
        if name not in self._asm_ix:
            raise NotAnAssumption(f"{name!r} is not an assumption")
        return self._asm_ix[name]

    def _asm_mask(self, names):
        m = 0
        for a in names:
            m |= 1 << self.resolve(a)
        return m

    def _asm_names(self, mask):
        return frozenset(a for i, a in enumerate(self.assumptions) if mask >> i & 1)

    def _theory_mask(self, asm_mask):
        """Forward chaining from one assumption set: every rule whose body
        holds fires, until none does."""
        cur = asm_mask
        changed = True
        while changed:
            changed = False
            for head_bit, body_mask in self._rule_bits:
                if body_mask & ~cur == 0 and not cur & head_bit:
                    cur |= head_bit
                    changed = True
        return cur

    def _closure_mask(self, th):
        return th & ((1 << len(self.assumptions)) - 1)

    def _attacked_mask(self, th):
        """The assumptions whose contrary the theory contains."""
        m = 0
        for i, c in enumerate(self._contrary_ix):
            if th >> c & 1:
                m |= 1 << i
        return m


def theory(frame: AbaFramework, names):
    """Everything derivable from subsets of the given assumption set."""
    th = frame._theory_mask(frame._asm_mask(names))
    return frozenset(p for i, p in enumerate(frame._bit_atoms) if th >> i & 1)


def aba_closure(frame: AbaFramework, names):
    """Derivable assumptions of an assumption set."""
    th = frame._theory_mask(frame._asm_mask(names))
    return frame._asm_names(frame._closure_mask(th))


def attacks(frame: AbaFramework, attacker, target):
    """Does some subset of `attacker` derive the contrary of a member of `target`?"""
    th = frame._theory_mask(frame._asm_mask(attacker))
    return bool(frame._attacked_mask(th) & frame._asm_mask(target))


def enumerate_arguments(frame: AbaFramework, cap=ARGUMENT_CAP):
    """All arguments of the framework, deduplicated by (support, conclusion).

    Saturates: assumption bases and facts seed the pool, then rules combine
    existing arguments. Raises CapExceeded when more than `cap` distinct
    arguments exist, or when the combination work itself blows up.
    """
    cached = frame._arg_memo.get(cap)
    if cached is not None:
        return list(cached)
    by_concl: dict[str, list[frozenset]] = {}
    seen = set()

    def add(support, concl):
        key = (support, concl)
        if key in seen:
            return False
        seen.add(key)
        by_concl.setdefault(concl, []).append(support)
        if len(seen) > cap:
            raise CapExceeded(cap)
        return True

    for a in frame.assumptions:
        add(frozenset([a]), a)
    work_budget = max(1_000_000, cap * 200)
    work = 0
    changed = True
    while changed:
        changed = False
        for head, body in frame.rules:
            if not body:
                if add(frozenset(), head):
                    changed = True
                continue
            pools = [by_concl.get(b, ()) for b in body]
            if any(len(p) == 0 for p in pools):
                continue
            for combo in product(*[list(p) for p in pools]):
                work += 1
                if work > work_budget:
                    raise CapExceeded(cap, "argument construction work limit hit")
                support = frozenset().union(*combo)
                if add(support, head):
                    changed = True

    base_rank = {a: i for i, a in enumerate(frame.assumptions)}
    atom_rank = frame._atom_ix

    def key(arg):
        support, concl = arg
        if len(support) == 1 and concl in support:
            return (0, base_rank[concl], ())
        return (1, atom_rank[concl],
                tuple(sorted(atom_rank[a] for a in support)))

    ordered = [Argument(s, c) for s, c in sorted(seen, key=key)]
    frame._arg_memo[cap] = ordered
    return list(ordered)


def aba_defends(frame: AbaFramework, defender, assumption, mode="closed-sets",
                cap=ARGUMENT_CAP, engine=None):
    """Does `defender` counter every attack on `assumption`?

    closed-sets mode follows the definition: every closed assumption set
    attacking the assumption must itself be attacked; it reads the closed
    sets and their ranges from the subset engine, `engine` when given
    (`frame.engine()` built once for several calls). attacker-closure mode
    goes through individual attacking arguments instead and counter-attacks
    the closure of each argument's support; it needs argument enumeration
    and therefore honours `cap`.
    """
    i = frame.resolve(assumption)
    if mode not in DEFENSE_MODES:
        raise ValueError(f"unknown defense mode {mode!r}")
    attacked = frame._attacked_mask(frame._theory_mask(frame._asm_mask(defender)))
    if mode == "closed-sets":
        eng = engine if engine is not None else frame.engine()
        return masks.closed_set_defends(eng, attacked, i)
    target_atom = frame.contrary[assumption]
    for arg in enumerate_arguments(frame, cap):
        if arg.conclusion != target_atom:
            continue
        th = frame._theory_mask(frame._asm_mask(arg.support))
        if not attacked & frame._closure_mask(th):
            return False
    return True


def aba_extensions(frame: AbaFramework, semantics, engine=None):
    """Enumerate extensions with the subset engine.

    Conflict-freeness and closedness are required across the board, and
    defense counter-attacks closed attacker sets, so even grounded and
    stable go through the same filters. `engine`, when given, is
    `frame.engine()` built once for several calls.
    """
    return masks.mask_sets(masks._extension_masks(frame, semantics, engine),
                           frame.assumptions)


def aba_decide(frame: AbaFramework, task, semantics, query=None):
    """Decide credulous / skeptical acceptance or verify a candidate set.

    cred: query assumption lies in some extension. skept: in every extension
    (vacuously true when there are none). ver: the query set is an extension.
    """
    result = masks.decide(task, query, frame.resolve,
                          lambda: masks._extension_masks(frame, semantics))
    return masks.mask_sets(result, frame.assumptions) if task == "enumerate" else result


# ------------------------------------------------------------------ text io

def parse_aba(text):
    """Read the line-oriented ABA format.

    p aba <n_atoms>        header, atoms are 1..n
    a <i>                  atom i is an assumption
    c <i> <j>              the contrary of assumption i is atom j
    r <h> <b1> ... <bk>    rule, k may be 0
    name <i> <label>       optional display name for atom i
    Blank lines and lines starting with # are ignored.
    """
    n = None
    asm = []
    contrary_ix = {}
    rules_ix = []
    names = {}
    for lineno, parts, line in directives(text, "aba"):
        if parts[0] == "p":
            if len(parts) != 3 or parts[1] != "aba":
                raise ParseError("expected 'p aba <n>'", lineno)
            n = integer(parts[2], lineno)
            if n < 0:
                raise ParseError("negative atom count", lineno)
        elif parts[0] == "a":
            if len(parts) != 2:
                raise ParseError("expected 'a <i>'", lineno)
            asm.append(_atom(parts[1], n, lineno))
        elif parts[0] == "c":
            if len(parts) != 3:
                raise ParseError("expected 'c <i> <j>'", lineno)
            i = _atom(parts[1], n, lineno)
            j = _atom(parts[2], n, lineno)
            if i in contrary_ix:
                raise ParseError(f"atom {i} already has a contrary", lineno)
            contrary_ix[i] = j
        elif parts[0] == "r":
            if len(parts) < 2:
                raise ParseError("expected 'r <head> <body...>'", lineno)
            rules_ix.append(tuple(_atom(p, n, lineno) for p in parts[1:]))
        elif parts[0] == "name":
            if len(parts) < 3:
                raise ParseError("expected 'name <i> <label>'", lineno)
            i = _atom(parts[1], n, lineno)
            names[i] = line.split(None, 2)[2]
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    asm_set = set(asm)
    for i in contrary_ix:
        if i not in asm_set:
            raise ParseError(f"atom {i} has a contrary but is not an assumption")
    for i in asm_set:
        if i not in contrary_ix:
            raise ParseError(f"assumption {i} has no contrary")
    label = {i: names.get(i, str(i)) for i in range(1, n + 1)}
    if len(set(label.values())) != n:
        raise ParseError("duplicate atom names")
    atoms = [label[i] for i in range(1, n + 1)]
    assumptions = [label[i] for i in sorted(asm_set)]
    contrary = {label[i]: label[j] for i, j in contrary_ix.items()}
    rules = [(label[r[0]], tuple(label[b] for b in r[1:])) for r in rules_ix]
    return AbaFramework(atoms, assumptions, contrary, rules)


def format_aba(frame: AbaFramework):
    """Serialize in the same format parse_aba reads. Deterministic."""
    ix = {p: i + 1 for i, p in enumerate(frame.atoms)}
    out = [f"p aba {len(frame.atoms)}"]
    for a in frame.assumptions:
        out.append(f"a {ix[a]}")
    for a in frame.assumptions:
        out.append(f"c {ix[a]} {ix[frame.contrary[a]]}")
    for head, body in frame.rules:
        out.append(" ".join(["r", str(ix[head])] + [str(ix[b]) for b in body]))
    for i, p in enumerate(frame.atoms, 1):
        if p != str(i):
            out.append(f"name {i} {p}")
    return "\n".join(out) + "\n"


def _atom(token, n, lineno):
    return index(integer(token, lineno), 1, n, "atom", lineno)
