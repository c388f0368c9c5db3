"""Command line front end.

Verbs:
  solve       enumerate extensions or answer cred/skept/ver queries
  translate   ABA file to its argument graph (baf or pbaf text)
  reduce      DIMACS CNF to one of the four gadget frameworks
  fuzz        run the randomized cross-checks
  export-dot  any framework file as a DOT graph

Exit codes: 0 success, 1 bad query, wrong framework kind or unreadable
input, 2 parse error (input that is not UTF-8 too), 3 size guard or
argument cap, 4 out of memory.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import harness
from .aba import ARGUMENT_CAP, parse_aba
from .baf import Pbaf, format_baf, format_pbaf, parse_baf, parse_pbaf
from .errors import (CapExceeded, ParseError, SolverError, TooLarge)
from .instantiate import describe_arguments, instantiate_baf, instantiate_pbaf
from .masks import SEMANTICS, TASKS, decide, mask_text
from .reductions import (construct_gr_baf, construct_sat_baf,
                         construct_skept_baf, construct_skept_pbaf,
                         parse_dimacs)
from .textio import decimal, decode, directives


def _read(path):
    """The text of a framework or CNF file, or of stdin for "-"."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise SolverError(f"cannot read {path}: {exc.strerror}") from None
    return decode(data, path)


def load_framework(text):
    kind, _, _ = directives(text, ("aba", "baf", "pbaf"), skip=("arg",))
    if kind == "aba":
        return kind, parse_aba(text)
    if kind == "baf":
        return kind, parse_baf(text)
    return kind, parse_pbaf(text)


# ------------------------------------------------------------------- solve

def run_solve(args):
    if len(args.path) == 2:
        declared, path = args.path
        if declared not in ("aba", "baf", "pbaf"):
            raise SolverError(f"unknown formalism {declared!r}")
    elif len(args.path) == 1:
        declared, path = None, args.path[0]
    else:
        raise SolverError("solve takes an optional formalism and one path")
    kind, frame = load_framework(_read(path))
    if declared is not None and declared != kind:
        raise SolverError(f"input is a {kind} file, declared as {declared}")
    task = args.task
    query = args.query
    if task in ("cred", "skept") and query is None:
        raise SolverError(f"task {task} needs --query")
    if task == "ver" and query is None:
        raise SolverError("task ver needs --query with a comma-separated set")
    if task == "ver":
        query = [q for q in query.split(",") if q]
    result = decide(frame, task, args.sigma, query, args.classic)
    # members print as (p)BAF arguments by id, ABA assumptions by name
    if kind == "aba":
        labels = frame.assumptions
        order = sorted(range(len(labels)), key=labels.__getitem__)
    else:
        labels, order = (frame.baf if kind == "pbaf" else frame).names, None
    if args.format == "json":
        # json.dumps(sort_keys=True) puts "answer" and "extensions" first;
        # the family's text, with each label encoded once, goes in between
        rest = json.dumps({"query": args.query, "semantics": args.sigma,
                           "task": task}, sort_keys=True)
        if task == "enumerate":
            text = mask_text(result, list(map(json.dumps, labels)), ", ", ", ",
                             order)
            print('{"answer": null, "extensions": [', text, "], ", rest[1:],
                  sep="")
        else:
            print(f'{{"answer": {json.dumps(result)}, "extensions": null, '
                  f'{rest[1:]}')
    elif task == "enumerate":
        if len(result):
            print(mask_text(result, labels, ",", "\n", order))
        print(f"count: {len(result)}")
    else:
        print("YES" if result else "NO")
    return 0


# --------------------------------------------------------------- translate

def run_translate(args):
    kind, frame = load_framework(_read(args.path))
    if kind != "aba":
        raise SolverError("translate expects an ABA file")
    if args.target == "baf":
        inst = instantiate_baf(frame, args.cap)
        text = format_baf(inst.baf, annotations=describe_arguments(inst))
    else:
        inst = instantiate_pbaf(frame, args.cap)
        text = format_pbaf(inst.pbaf, annotations=describe_arguments(inst))
    sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------ reduce

CONSTRUCTIONS = {
    "sat-baf": construct_sat_baf,
    "gr-baf": construct_gr_baf,
    "skept-baf": construct_skept_baf,
    "skept-pbaf": construct_skept_pbaf,
}


def run_reduce(args):
    cnf = parse_dimacs(_read(args.path))
    built = CONSTRUCTIONS[args.construction](cnf)
    if isinstance(built, Pbaf):
        sys.stdout.write(format_pbaf(built))
    else:
        sys.stdout.write(format_baf(built))
    return 0


# -------------------------------------------------------------------- fuzz

def _integer(least=None, what="an integer"):
    """An argparse type: an integer option read by the file formats' rule,
    `textio.decimal`, and at least `least`."""
    def read(text):
        if not decimal(text) or least is not None and int(text) < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return int(text)
    return read


# each check's reports on one seed and the framework drawn from it
CHECKS = {
    "correspondence": lambda seed, frame: [harness.check_correspondence(
        frame, label=f"seed={seed}")],
    "defense-eq": lambda seed, frame: [
        harness.check_defense_equivalence(harness.random_baf(7, seed),
                                          label=f"baf-seed={seed}"),
        harness.check_defense_equivalence(frame, label=f"aba-seed={seed}")],
    "constructions": lambda seed, frame: [harness.check_construction_lemmas(
        harness.random_cnf(seed), label=f"seed={seed}")],
}


def run_fuzz(args):
    """Each seed's `random_aba` framework is drawn once and goes to every
    check, so its argument memo serves `correspondence` and `defense-eq`;
    the report lists the checks in the order asked, each over all seeds."""
    parts = [[] for _ in args.checks]
    for seed in range(args.seed, args.seed + args.count):
        frame = harness.random_aba(harness.GenParams(seed=seed))
        for part, check in zip(parts, args.checks):
            part += CHECKS[check](seed, frame)
    report = harness.CheckReport()
    for part in parts:
        for rep in part:
            report.extend(rep)
    if args.format == "json":
        print(report.dumps())
    else:
        for line in report.lines():
            print(line)
        print(report.summary())
    return 1 if report.failures else 0


# -------------------------------------------------------------- export-dot

def _dot_quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(frame):
    """DOT text for a Baf or Pbaf: solid attack edges, dashed supports,
    premise sets as part of the node label when present."""
    premises = None
    if isinstance(frame, Pbaf):
        premises, frame = frame.premises, frame.baf
    out = ["digraph framework {"]
    for i, nm in enumerate(frame.names):
        label = nm
        if premises is not None:
            inner = ",".join(str(p) for p in sorted(premises[i]))
            label = f"{nm} [{inner}]" if inner else f"{nm} []"
        out.append(f"  n{i} [label={_dot_quote(label)}];")
    for s, t in frame.att:
        out.append(f"  n{s} -> n{t};")
    for s, t in frame.sup:
        out.append(f"  n{s} -> n{t} [style=dashed];")
    out.append("}")
    return "\n".join(out) + "\n"


def run_export_dot(args):
    kind, frame = load_framework(_read(args.path))
    if kind == "aba":
        inst = instantiate_baf(frame, args.cap)
        frame = inst.baf
    sys.stdout.write(export_dot(frame))
    return 0


# -------------------------------------------------------------------- main

def build_parser():
    nonneg = _integer(0, "a non-negative integer")
    parser = argparse.ArgumentParser(
        prog="bipolaraba",
        description="Solver for assumption-based and bipolar argumentation "
                    "with closed-set semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="enumerate extensions or decide a query")
    p.add_argument("path", nargs="+", metavar="[formalism] path",
                   help="optional formalism (aba, baf, pbaf) and a "
                        "framework file, or - for stdin")
    p.add_argument("--sigma", choices=SEMANTICS, default="co")
    p.add_argument("--task", type=str.lower, choices=TASKS,
                   default="enumerate",
                   help="enumerate, cred, skept or ver (case-insensitive)")
    p.add_argument("--query", help="argument/assumption, or comma-set for ver")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--classic", action="store_true",
                   help="textbook Dung semantics (support-free BAF only)")
    p.set_defaults(func=run_solve)

    p = sub.add_parser("translate", help="ABA file to its argument graph")
    p.add_argument("path")
    p.add_argument("--target", choices=("baf", "pbaf"), default="baf")
    p.add_argument("--cap", type=nonneg, default=ARGUMENT_CAP,
                   help="argument construction cap")
    p.set_defaults(func=run_translate)

    p = sub.add_parser("reduce", help="DIMACS CNF to a gadget framework")
    p.add_argument("path")
    p.add_argument("--construction", choices=sorted(CONSTRUCTIONS),
                   required=True)
    p.set_defaults(func=run_reduce)

    p = sub.add_parser("fuzz", help="randomized cross-checks")
    p.add_argument("--checks", nargs="+", choices=tuple(CHECKS),
                   default=list(CHECKS))
    # a run that checks nothing must not pass
    p.add_argument("--count", type=_integer(1, "a positive integer"),
                   default=20)
    p.add_argument("--seed", type=_integer(), default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=run_fuzz)

    p = sub.add_parser("export-dot", help="framework as a DOT graph")
    p.add_argument("path")
    p.add_argument("--cap", type=nonneg, default=ARGUMENT_CAP)
    p.set_defaults(func=run_export_dot)
    return parser


@functools.cache
def _parser():
    """The argparse tree, built by the first `main` call and kept: parsing
    leaves it unchanged, and building it costs about twenty parses."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (TooLarge, CapExceeded) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except (SolverError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
