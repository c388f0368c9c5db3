"""CNF-to-framework gadget constructions, plus a small SAT oracle.

Each construction turns a propositional CNF into a framework whose
semantics encode (un)satisfiability:

  construct_sat_baf     complete extension exists  iff  SAT
  construct_gr_baf      grounded member is {top, phi} iff SAT, empty iff not
  construct_skept_baf   psi-bar in every complete extension  iff  UNSAT
  construct_skept_pbaf  psi-bar skeptically admissible  iff  UNSAT
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .baf import Baf, Pbaf
from .errors import EmptyClause, ParseError, TooLarge
from .textio import directives, integer

SAT_LIMIT = 20


@dataclass
class Cnf:
    n_vars: int
    clauses: list = field(default_factory=list)

    def __post_init__(self):
        norm = []
        for clause in self.clauses:
            clause = tuple(int(x) for x in clause)
            if not clause:
                raise EmptyClause("clause without literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range")
            norm.append(clause)
        self.clauses = norm


def parse_dimacs(text):
    """Standard DIMACS CNF. Clauses are 0-terminated and may span lines;
    'c' and '%' lines are comments."""
    clauses = []
    current = []
    _, (n_vars, n_clauses), lines = directives(text, ("cnf",), skip=("c", "%"))
    for lineno, parts, _ in lines:
        for tok in parts:
            lit = integer(tok, lineno)
            if lit == 0:
                if not current:
                    raise EmptyClause("clause without literals", lineno)
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > n_vars:
                    raise ParseError(f"variable {abs(lit)} out of range", lineno)
                current.append(lit)
    if current:
        raise ParseError("last clause is not 0-terminated")
    if len(clauses) != n_clauses:
        raise ParseError(f"header promises {n_clauses} clauses, found {len(clauses)}")
    return Cnf(n_vars, clauses)


def format_dimacs(cnf: Cnf):
    out = [f"p cnf {cnf.n_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"


def brute_force_sat(cnf: Cnf):
    """Try every assignment. The empty formula counts as satisfiable."""
    if cnf.n_vars > SAT_LIMIT:
        raise TooLarge("variable count", cnf.n_vars, SAT_LIMIT)
    for bits in range(1 << cnf.n_vars):
        if all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause)
               for clause in cnf.clauses):
            return True
    return False


# ------------------------------------------------------------ constructions

def _gadget(cnf: Cnf, target, pairs=(("x", "nx"),), after=(), tail=(),
            var_att=(), att=(), sup=()):
    """The frame of a gadget declared by argument names.

    Per variable i, each (positive, negative) prefix pair of `pairs`
    names two literal arguments, all of which attack each other, and the
    prefixes of `after` name more; `var_att` adds attacks as prefix
    pairs. Clause j gets an argument c_j: each of its literals, under
    every pair, attacks c_j, and c_j attacks `target`. Arguments run
    literals, clauses, `after` arguments, `tail`; attacks run per
    variable, per clause, `att`. `att` and `sup` pair full names.
    """
    variables, clauses = range(1, cnf.n_vars + 1), cnf.clauses
    lits = [p for pair in pairs for p in pair]
    names = [f"{p}{i}" for i in variables for p in lits]
    names += [f"c{j}" for j in range(1, len(clauses) + 1)]
    names += [f"{p}{i}" for i in variables for p in after] + list(tail)
    per_var = [(s, t) for s in lits for t in lits if s != t] + list(var_att)
    edges = [(f"{s}{i}", f"{t}{i}") for i in variables for s, t in per_var]
    for j, clause in enumerate(clauses, 1):
        edges += [(f"{pair[lit < 0]}{abs(lit)}", f"c{j}")
                  for lit in clause for pair in pairs]
        edges.append((f"c{j}", target))
    ix = {nm: k for k, nm in enumerate(names)}
    return Baf(len(names), [(ix[s], ix[t]) for s, t in edges + list(att)],
               [(ix[s], ix[t]) for s, t in sup], names)


def construct_sat_baf(cnf: Cnf):
    """Literal pair per variable, one argument per clause, top supporting phi.

    Complete extensions exist exactly when the formula is satisfiable, and
    every complete extension contains top and phi.
    """
    return _gadget(cnf, "phi", tail=["top", "phi"], sup=[("top", "phi")])


def construct_gr_baf(cnf: Cnf):
    """Like construct_sat_baf with a second literal pair per variable.

    The four literal copies attack each other, so no literal is ever
    defended and the grounded member collapses to {top, phi} when the
    formula is satisfiable and to the empty set when it is not.
    """
    return _gadget(cnf, "phi", pairs=[("x", "nx"), ("xp", "nxp")],
                   tail=["top", "phi"], sup=[("top", "phi")])


def construct_skept_baf(cnf: Cnf):
    """Assignment gadget per variable plus a psi / psi-bar pair.

    Complete extensions correspond one-to-one to total assignments; psi-bar
    sits in all of them exactly when the formula is unsatisfiable.
    """
    return _gadget(
        cnf, "psi", after=["top", "bot", "d"], tail=["npsi", "psi"],
        var_att=[("x", "bot"), ("nx", "bot"), ("bot", "bot"), ("bot", "d")],
        att=[("psi", "npsi")],
        sup=[(f"top{i}", f"d{i}") for i in range(1, cnf.n_vars + 1)])


def construct_skept_pbaf(cnf: Cnf):
    """Premise-based variant: no supports, exhaustiveness does the forcing.

    d_i and t carry empty premise sets, so every admissible set must adopt
    them, defend them, and thereby fix a total assignment; psi-bar is
    skeptically admissible exactly when the formula is unsatisfiable.
    """
    frame = _gadget(
        cnf, "psi", after=["bot", "d"], tail=["psi", "npsi", "t", "bott"],
        var_att=[("x", "bot"), ("nx", "bot"), ("bot", "d")],
        att=[("psi", "npsi"), ("bott", "t"), ("psi", "bott"),
             ("npsi", "bott")])
    empty = {f"d{i}" for i in range(1, cnf.n_vars + 1)} | {"t"}
    premises = [frozenset() if nm in empty else frozenset([k])
                for k, nm in enumerate(frame.names)]
    return Pbaf(frame, premises, frame.n)
