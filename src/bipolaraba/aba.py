"""Assumption-based argumentation without the flatness restriction.

Assumptions may occur in rule heads, so a set of assumptions is not
automatically closed under derivation. All semantics below therefore work
with closed conflict-free sets and with the closure-aware notion of defense.
Extensions come from the subset engine in `masks`, the same filters the
(p)BAF semantics use, over tables indexed by assumption sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product

import numpy as np

from . import masks
from .errors import CapExceeded, NotAnAssumption, ParseError, SolverError
from .masks import DEFENSE_MODES
from .textio import check_names, directives, index, integer, put_once

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
        check_names(self.atoms)
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
        self._memo = {}  # per (what, cap): results built from the arguments

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
        """The subset engine over all assumption sets: `atomic_aba_engine`, a
        `row_engine`, when every rule body has at most one atom, else
        `aba_engine` over the theory of every assumption mask."""
        atomic = all(len(set(body)) < 2 for _, body in self._rules_ix)
        build = masks.atomic_aba_engine if atomic else masks.aba_engine
        return build(len(self.assumptions), len(self.atoms), self._rules_ix,
                     self._contrary_ix)

    # mask helpers ----------------------------------------------------

    def resolve(self, name):
        """The bit index of an assumption."""
        if name not in self._asm_ix:
            raise NotAnAssumption(f"{name!r} is not an assumption")
        return self._asm_ix[name]

    def _theories(self, sets):
        """`masks.forward_chain` from each assumption set at once: row i,
        column j says whether atom bit i is derived from sets[j]."""
        th = np.zeros((len(self._bit_atoms), len(sets)), dtype=bool)
        for j, names in enumerate(sets):
            th[[self.resolve(a) for a in names], j] = True
        return masks.forward_chain(th, self._rules_ix)


def theory(frame: AbaFramework, names):
    """Everything derivable from subsets of the given assumption set."""
    return frozenset(compress(frame._bit_atoms, frame._theories([names])[:, 0]))


def aba_closure(frame: AbaFramework, names):
    """Derivable assumptions of an assumption set."""
    return frozenset(compress(frame.assumptions, frame._theories([names])[:, 0]))


def attacks(frame: AbaFramework, attacker, target):
    """Does some subset of `attacker` derive the contrary of a member of `target`?"""
    th = frame._theories([attacker])[:, 0]
    return bool(th[[frame._contrary_ix[frame.resolve(a)] for a in target]].any())


def enumerate_arguments(frame: AbaFramework, cap=ARGUMENT_CAP):
    """All arguments of the framework, deduplicated by (support, conclusion):
    the assumption bases ({a}, a) first, in assumption order, then the rest
    by the atom order of the conclusion and then of the sorted support.

    Saturates: assumption bases seed the pool, then rules combine existing
    arguments, a fact as a rule with one empty combination. Raises
    CapExceeded when more than `cap` distinct arguments exist, or when the
    combination work itself blows up.
    """
    cached = frame._memo.get(("arguments", cap))
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
            # product() copies the pools first, so the loop may grow them
            for combo in product(*(by_concl.get(b, ()) for b in body)):
                work += 1
                if work > work_budget:
                    raise CapExceeded(cap, "argument construction work limit hit")
                support = frozenset().union(*combo)
                if add(support, head):
                    changed = True

    base_rank, atom_rank = frame._asm_ix, frame._atom_ix

    def key(arg):
        support, concl = arg
        if len(support) == 1 and concl in support:
            return (0, base_rank[concl], ())
        return (1, atom_rank[concl],
                tuple(sorted(atom_rank[a] for a in support)))

    ordered = [Argument(s, c) for s, c in sorted(seen, key=key)]
    frame._memo["arguments", cap] = ordered
    return list(ordered)


def aba_defends(frame: AbaFramework, defender, assumption, mode="closed-sets",
                cap=ARGUMENT_CAP):
    """Does `defender` counter every attack on `assumption`?

    closed-sets mode follows the definition: every closed assumption set
    attacking the assumption must itself be attacked; it reads the closed
    sets and their ranges from the subset engine, built for the call.
    attacker-closure mode goes through individual attacking arguments
    instead and counter-attacks the closure of each argument's support; it
    needs argument enumeration and therefore honours `cap`. Both answer one
    pair; `check_defense_equivalence` compares them on every pair at once.
    """
    i = frame.resolve(assumption)
    if mode not in DEFENSE_MODES:
        raise ValueError(f"unknown defense mode {mode!r}")
    attacked = masks.row_masks(frame._theories([defender])[frame._contrary_ix])[0]
    if mode == "closed-sets":
        return masks.closed_set_defends(frame.engine(), attacked, i)
    return all(attacked & c for c in attacker_closures(frame, cap)[i])


def attacker_closures(frame: AbaFramework, cap=ARGUMENT_CAP):
    """For each assumption, the closure masks of the supports of the
    arguments concluding its contrary, ascending: a set defends the
    assumption by attacker-closure iff it attacks a member of each mask.
    Built once per `cap` from the arguments, which it honours."""
    key = ("attacker closures", cap)
    if key not in frame._memo:
        targets = set(frame.contrary.values())
        args = [a for a in enumerate_arguments(frame, cap) if a.conclusion in targets]
        closures = masks.row_masks(
            frame._theories([a.support for a in args])[:len(frame.assumptions)])
        frame._memo[key] = tuple(
            tuple(sorted({c for a, c in zip(args, closures)
                          if a.conclusion == frame.contrary[x]}))
            for x in frame.assumptions)
    return frame._memo[key]


def aba_extensions(frame: AbaFramework, semantics):
    """Enumerate extensions with the subset engine: `aba_decide`'s
    enumerate task.

    Conflict-freeness and closedness are required across the board, and
    defense counter-attacks closed attacker sets, so even grounded and
    stable go through the same filters.
    """
    return aba_decide(frame, "enumerate", semantics)


def aba_decide(frame: AbaFramework, task, semantics, query=None):
    """Decide credulous / skeptical acceptance or verify a candidate set.

    cred: query assumption lies in some extension. skept: in every extension
    (vacuously true when there are none). ver: the query set is an extension.
    """
    result = masks.decide(frame, task, semantics, query)
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
    _, (n,), lines = directives(text, ("aba",))
    asm = []
    contrary_ix = {}
    rules_ix = []
    names = {}
    for lineno, parts, line in lines:
        if parts[0] == "a":
            if len(parts) != 2:
                raise ParseError("expected 'a <i>'", lineno)
            asm.append(_atom(parts[1], n, lineno))
        elif parts[0] == "c":
            if len(parts) != 3:
                raise ParseError("expected 'c <i> <j>'", lineno)
            put_once(contrary_ix, _atom(parts[1], n, lineno),
                     _atom(parts[2], n, lineno), lineno,
                     "atom {} already has a contrary")
        elif parts[0] == "r":
            if len(parts) < 2:
                raise ParseError("expected 'r <head> <body...>'", lineno)
            rules_ix.append(tuple(_atom(p, n, lineno) for p in parts[1:]))
        elif parts[0] == "name":
            if len(parts) < 3:
                raise ParseError("expected 'name <i> <label>'", lineno)
            put_once(names, _atom(parts[1], n, lineno), line.split(None, 2)[2],
                     lineno, "atom {} already has a name")
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    label = {i: names.get(i, str(i)) for i in range(1, n + 1)}
    try:
        return AbaFramework(list(label.values()), [label[i] for i in asm],
                            {label[i]: label[j] for i, j in contrary_ix.items()},
                            [(label[r[0]], [label[b] for b in r[1:]])
                             for r in rules_ix])
    except (ValueError, SolverError) as exc:
        raise ParseError(str(exc)) from None


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
