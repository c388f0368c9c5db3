"""From an ABA framework to its argument graph.

Arguments attack arguments whose support they undercut, and support the
assumption bases contained in the closure of their own support. The
premise-aware variant labels every argument with its support so that
exhaustiveness can be enforced on the graph side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aba import ARGUMENT_CAP, AbaFramework, enumerate_arguments
from .baf import Baf, Pbaf


@dataclass
class Instantiation:
    source: AbaFramework
    arguments: list
    baf: Baf
    pbaf: Pbaf | None = None

    def argument_id(self, support, conclusion):
        key = (frozenset(support), conclusion)
        return self._by_key[key]

    def __post_init__(self):
        self._by_key = {(a.support, a.conclusion): i
                        for i, a in enumerate(self.arguments)}


def _build(frame: AbaFramework, cap):
    args = enumerate_arguments(frame, cap)
    names = [str(a) for a in args]
    th = frame._theories([a.support for a in args])
    # the arguments each atom attacks: those whose support holds an
    # assumption with that contrary, ascending
    attacked = {}
    for y, a in enumerate(args):
        for p in {frame.contrary[x] for x in a.support}:
            attacked.setdefault(p, []).append(y)
    att = [(x, y) for x, a in enumerate(args)
           for y in attacked.get(a.conclusion, ())]
    # argument x supports the base argument of each other assumption its
    # support derives; assumption i's base argument ({a_i}, a_i) is argument i
    k = len(frame.assumptions)
    sup = [(x, i) for x, i in np.argwhere(th[:k].T).tolist() if x != i]
    return args, names, att, sup


def instantiate_baf(frame: AbaFramework, cap=ARGUMENT_CAP):
    """The argument graph of the framework, attacks and supports only."""
    args, names, att, sup = _build(frame, cap)
    return Instantiation(frame, args, Baf(len(args), att, sup, names))


def instantiate_pbaf(frame: AbaFramework, cap=ARGUMENT_CAP):
    """Argument graph plus premise labels (premise ids are 1-based atom ids)."""
    inst = instantiate_baf(frame, cap)
    atom_id = {p: i + 1 for i, p in enumerate(frame.atoms)}
    premises = [frozenset(atom_id[x] for x in a.support) for a in inst.arguments]
    inst.pbaf = Pbaf(inst.baf, premises, len(frame.atoms) + 1)
    return inst


def arguments_for(inst: Instantiation, assumption_set):
    """Ids of every argument whose support lies inside the given set."""
    s = frozenset(assumption_set)
    for a in s:
        inst.source.resolve(a)
    return frozenset(i for i, arg in enumerate(inst.arguments)
                     if arg.support <= s)


def assumptions_of(inst: Instantiation, ext):
    """Union of the supports of the given arguments."""
    out = set()
    for ref in ext:
        out |= inst.arguments[inst.baf.resolve(ref)].support
    return frozenset(out)


def is_assumption_exhaustive(inst: Instantiation, ext):
    """Does the set contain every argument its own assumptions can build?"""
    ids = frozenset(inst.baf.resolve(x) for x in ext)
    return ids == arguments_for(inst, assumptions_of(inst, ids))


def describe_arguments(inst: Instantiation):
    """One annotation line per argument, for serialized output."""
    out = []
    for i, a in enumerate(inst.arguments):
        support = " ".join(sorted(a.support)) or "-"
        out.append(f"arg {i} concludes {a.conclusion} from {support}")
    return out
