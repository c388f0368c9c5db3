"""Planted faults that the fuzz checks must catch.

Each mutant replaces one text, which must occur exactly once, in one
module under src/, and names a CLI request that must then exit nonzero.
Every mutant is applied to its own copy of src/ in a temporary directory
outside the checkout, and the request runs against that copy. The
unmutated copy must pass every request first, so a mutant counts as
caught only by a failing check.

    python tests/mutants.py

Exits 1 if a request fails on the unmutated copy, a mutant's text is not
found exactly once, or a mutant survives its request. This file is not
collected by pytest: it runs the CLI once per mutant and takes seconds.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MUTANTS = [
    # ABA defense counter-attacks the minimal sets deriving a contrary,
    # not their closures
    ("bipolaraba/masks.py",
     "np.unique(cl[derivers[(targets >> np.uint32(a)) & 1 == 1]])",
     "np.unique(derivers[(targets >> np.uint32(a)) & 1 == 1].astype(np.uint32))",
     ["fuzz", "--checks", "defense-eq", "--count", "200"]),
    # closed-set defense skips the subset-OR pass of the top bit
    ("bipolaraba/masks.py",
     "for i in range(len(t).bit_length() - 1):",
     "for i in range(len(t).bit_length() - 2):",
     ["fuzz", "--checks", "defense-eq", "--count", "50"]),
    # BAF defense counter-attacks the attacker alone, not its closure
    ("bipolaraba/masks.py",
     "closures[t].append(cl1[s])",
     "closures[t].append(1 << s)",
     ["fuzz", "--checks", "defense-eq", "--count", "50"]),
    # the pBAF prefilter reads a high half's covered arguments from its
    # unshifted bits, so the join drops exhaustive sets
    ("bipolaraba/masks.py",
     "_unmet(half, needs)",
     "_unmet(half >> np.uint32(shift), needs)",
     ["fuzz", "--checks", "constructions", "--count", "50"]),
]


def run(src, argv):
    """The exit code of the CLI request over the package in `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    # -B: no bytecode, so a mutant of a module's own length is not served
    # from the bytecode of the text it replaced
    argv = [sys.executable, "-B", "-m", "bipolaraba.cli", *argv]
    return subprocess.run(argv, cwd=src, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        for argv in {tuple(m[3]) for m in MUTANTS}:
            if run(src, argv) != 0:
                print(f"FAIL unmutated: {' '.join(argv)} exits nonzero")
                bad += 1
        for path, old, new, argv in MUTANTS:
            target = src / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"FAIL {path}: {old!r} occurs {text.count(old)} times")
                bad += 1
                continue
            target.write_text(text.replace(old, new))
            code = run(src, argv)
            target.write_text(text)
            status = "killed" if code != 0 else "SURVIVED"
            print(f"{status:<9}{path}: {new}  ({' '.join(argv)}, exit {code})")
            bad += code == 0
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
