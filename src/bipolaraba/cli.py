"""Command line front end.

Verbs:
  solve       enumerate extensions or answer cred/skept/ver queries
  translate   ABA file to its argument graph (baf or pbaf text)
  reduce      DIMACS CNF to one of the four gadget frameworks
  fuzz        run the randomized cross-checks
  export-dot  any framework file as a DOT graph

Exit codes: 0 success, 1 bad query or wrong framework kind, 2 parse error,
3 size guard or argument cap.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import baf, harness, masks
from .aba import ARGUMENT_CAP, parse_aba
from .baf import Pbaf, format_baf, format_pbaf, parse_baf, parse_pbaf
from .errors import (CapExceeded, ParseError, SolverError, TooLarge)
from .instantiate import describe_arguments, instantiate_baf, instantiate_pbaf
from .masks import SEMANTICS, TASKS, decide, mask_members
from .reductions import (construct_gr_baf, construct_sat_baf,
                         construct_skept_baf, construct_skept_pbaf,
                         parse_dimacs)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _detect(text):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("p "):
            parts = line.split()
            if len(parts) >= 2 and parts[1] in ("aba", "baf", "pbaf"):
                return parts[1]
            raise ParseError(f"unrecognized header {line!r}")
        raise ParseError("first directive must be the 'p' header")
    raise ParseError("empty input")


def load_framework(text):
    kind = _detect(text)
    if kind == "aba":
        return kind, parse_aba(text)
    if kind == "baf":
        return kind, parse_baf(text)
    return kind, parse_pbaf(text)


# ------------------------------------------------------------------- solve

def _decider(kind, frame, sigma, classic):
    """The query-item-to-bit map and the extension-mask source of a
    framework, and the labels and bit order its members print in: (p)BAF
    arguments by id, ABA assumptions by name."""
    if classic and kind != "baf":
        raise SolverError("classic Dung semantics apply to plain BAF files")
    if kind == "aba":
        labels = frame.assumptions
        order = sorted(range(len(labels)), key=labels.__getitem__)
        return (frame.resolve, lambda: masks._extension_masks(frame, sigma),
                labels, order)
    base, source = baf._source(frame, sigma, classic=classic)
    return base.resolve, source, base.names, None


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
    bit, extension_masks, labels, order = _decider(kind, frame, args.sigma,
                                                   args.classic)
    if task == "ver":
        query = [q for q in query.split(",") if q]
    result = decide(task, query, bit, extension_masks)
    rendered = (mask_members(result, labels, order)
                if task == "enumerate" else None)
    if args.format == "json":
        print(json.dumps({
            "semantics": args.sigma,
            "task": task,
            "query": args.query,
            "extensions": rendered,
            "answer": None if task == "enumerate" else result,
        }, sort_keys=True))
    elif task == "enumerate":
        for members in rendered:
            print("[" + ",".join(members) + "]")
        print(f"count: {len(rendered)}")
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

def _positive(text):
    """A --count of at least 1: a run that checks nothing must not pass."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def run_fuzz(args):
    report = harness.CheckReport()
    for check in args.checks:
        if check == "correspondence":
            for k in range(args.count):
                frame = harness.random_aba(harness.GenParams(seed=args.seed + k))
                report.extend(harness.check_correspondence(
                    frame, label=f"seed={args.seed + k}"))
        elif check == "defense-eq":
            for k in range(args.count):
                seed = args.seed + k
                report.extend(harness.check_defense_equivalence(
                    harness.random_baf(7, seed), label=f"baf-seed={seed}"))
                report.extend(harness.check_defense_equivalence(
                    harness.random_aba(harness.GenParams(seed=seed)),
                    label=f"aba-seed={seed}"))
        else:
            for k in range(args.count):
                cnf = harness.random_cnf(args.seed + k)
                report.extend(harness.check_construction_lemmas(
                    cnf, label=f"seed={args.seed + k}"))
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
    p.add_argument("--cap", type=int, default=ARGUMENT_CAP,
                   help="argument construction cap")
    p.set_defaults(func=run_translate)

    p = sub.add_parser("reduce", help="DIMACS CNF to a gadget framework")
    p.add_argument("path")
    p.add_argument("--construction", choices=sorted(CONSTRUCTIONS),
                   required=True)
    p.set_defaults(func=run_reduce)

    p = sub.add_parser("fuzz", help="randomized cross-checks")
    p.add_argument("--checks", nargs="+",
                   choices=("correspondence", "defense-eq", "constructions"),
                   default=["correspondence", "defense-eq", "constructions"])
    p.add_argument("--count", type=_positive, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=run_fuzz)

    p = sub.add_parser("export-dot", help="framework as a DOT graph")
    p.add_argument("path")
    p.add_argument("--cap", type=int, default=ARGUMENT_CAP)
    p.set_defaults(func=run_export_dot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
