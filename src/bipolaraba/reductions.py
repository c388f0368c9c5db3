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

def _lit_name(lit):
    return f"x{lit}" if lit > 0 else f"nx{-lit}"


def _copy_name(lit):
    return f"xp{lit}" if lit > 0 else f"nxp{-lit}"


def construct_sat_baf(cnf: Cnf):
    """Literal pair per variable, one argument per clause, top supporting phi.

    Complete extensions exist exactly when the formula is satisfiable, and
    every complete extension contains top and phi.
    """
    n, clauses = cnf.n_vars, cnf.clauses
    names = [f"{p}{i}" for i in range(1, n + 1) for p in ("x", "nx")]
    names += [f"c{j}" for j in range(1, len(clauses) + 1)]
    names += ["top", "phi"]
    ix = {nm: k for k, nm in enumerate(names)}
    att = []
    for i in range(1, n + 1):
        att += [(ix[f"x{i}"], ix[f"nx{i}"]), (ix[f"nx{i}"], ix[f"x{i}"])]
    for j, clause in enumerate(clauses, 1):
        for lit in clause:
            att.append((ix[_lit_name(lit)], ix[f"c{j}"]))
        att.append((ix[f"c{j}"], ix["phi"]))
    return Baf(len(names), att, [(ix["top"], ix["phi"])], names)


def construct_gr_baf(cnf: Cnf):
    """Like construct_sat_baf with a second literal pair per variable.

    The four literal copies attack each other, so no literal is ever
    defended and the grounded member collapses to {top, phi} when the
    formula is satisfiable and to the empty set when it is not.
    """
    n, clauses = cnf.n_vars, cnf.clauses
    names = [f"{p}{i}" for i in range(1, n + 1) for p in ("x", "nx", "xp", "nxp")]
    names += [f"c{j}" for j in range(1, len(clauses) + 1)]
    names += ["top", "phi"]
    ix = {nm: k for k, nm in enumerate(names)}
    att = []
    for i in range(1, n + 1):
        quad = [ix[f"{p}{i}"] for p in ("x", "nx", "xp", "nxp")]
        att += [(s, t) for s in quad for t in quad if s != t]
    for j, clause in enumerate(clauses, 1):
        for lit in clause:
            att.append((ix[_lit_name(lit)], ix[f"c{j}"]))
            att.append((ix[_copy_name(lit)], ix[f"c{j}"]))
        att.append((ix[f"c{j}"], ix["phi"]))
    return Baf(len(names), att, [(ix["top"], ix["phi"])], names)


def construct_skept_baf(cnf: Cnf):
    """Assignment gadget per variable plus a psi / psi-bar pair.

    Complete extensions correspond one-to-one to total assignments; psi-bar
    sits in all of them exactly when the formula is unsatisfiable.
    """
    n, clauses = cnf.n_vars, cnf.clauses
    names = [f"{p}{i}" for i in range(1, n + 1) for p in ("x", "nx")]
    names += [f"c{j}" for j in range(1, len(clauses) + 1)]
    names += [f"{p}{i}" for i in range(1, n + 1) for p in ("top", "bot", "d")]
    names += ["npsi", "psi"]
    ix = {nm: k for k, nm in enumerate(names)}
    att = []
    sup = []
    for i in range(1, n + 1):
        att += [(ix[f"x{i}"], ix[f"nx{i}"]), (ix[f"nx{i}"], ix[f"x{i}"]),
                (ix[f"x{i}"], ix[f"bot{i}"]), (ix[f"nx{i}"], ix[f"bot{i}"]),
                (ix[f"bot{i}"], ix[f"bot{i}"]), (ix[f"bot{i}"], ix[f"d{i}"])]
        sup.append((ix[f"top{i}"], ix[f"d{i}"]))
    for j, clause in enumerate(clauses, 1):
        for lit in clause:
            att.append((ix[_lit_name(lit)], ix[f"c{j}"]))
        att.append((ix[f"c{j}"], ix["psi"]))
    att.append((ix["psi"], ix["npsi"]))
    return Baf(len(names), att, sup, names)


def construct_skept_pbaf(cnf: Cnf):
    """Premise-based variant: no supports, exhaustiveness does the forcing.

    d_i and t carry empty premise sets, so every admissible set must adopt
    them, defend them, and thereby fix a total assignment; psi-bar is
    skeptically admissible exactly when the formula is unsatisfiable.
    """
    n, clauses = cnf.n_vars, cnf.clauses
    names = [f"{p}{i}" for i in range(1, n + 1) for p in ("x", "nx")]
    names += [f"c{j}" for j in range(1, len(clauses) + 1)]
    names += [f"{p}{i}" for i in range(1, n + 1) for p in ("bot", "d")]
    names += ["psi", "npsi", "t", "bott"]
    ix = {nm: k for k, nm in enumerate(names)}
    att = []
    for i in range(1, n + 1):
        att += [(ix[f"x{i}"], ix[f"nx{i}"]), (ix[f"nx{i}"], ix[f"x{i}"]),
                (ix[f"x{i}"], ix[f"bot{i}"]), (ix[f"nx{i}"], ix[f"bot{i}"]),
                (ix[f"bot{i}"], ix[f"d{i}"])]
    for j, clause in enumerate(clauses, 1):
        for lit in clause:
            att.append((ix[_lit_name(lit)], ix[f"c{j}"]))
        att.append((ix[f"c{j}"], ix["psi"]))
    att += [(ix["psi"], ix["npsi"]), (ix["bott"], ix["t"]),
            (ix["psi"], ix["bott"]), (ix["npsi"], ix["bott"])]
    frame = Baf(len(names), att, [], names)
    premises = [frozenset([k]) for k in range(len(names))]
    for i in range(1, n + 1):
        premises[ix[f"d{i}"]] = frozenset()
    premises[ix["t"]] = frozenset()
    return Pbaf(frame, premises, len(names))
