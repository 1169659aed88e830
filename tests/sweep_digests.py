"""A digest corpus of CLI runs: ``sweep_digests.txt`` holds one run a line,
the sha256 of its (stdout, stderr, exit code) and its argv.  Text output
drops its ``# elapsed`` line, the only one that varies between runs.

The corpus covers forward and ``--negative`` moment tables over the
weight mini-language, every zero-lambda ``custom:`` list among them and
``--lambda bsq`` under ``custom:`` b prefixes (d = det A factors when
some lam_i is zero), ``sequence`` in each ``--emit``, peak-valley
sequences with pinned boundary values, ``verify alt-cf`` and ``verify
connection2`` over the index-reversed special weights, and usage errors.
A refactor that must not change any output is checked against it:

    PYTHONPATH=src python tests/sweep_digests.py           # name each run that differs
    PYTHONPATH=src python tests/sweep_digests.py --write   # record the corpus anew

Runs go through ``negmom.cli.main`` in this process; the whole corpus
takes about a second.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path
from typing import Dict, List

from negmom.cli import main

CORPUS = Path(__file__).with_name("sweep_digests.txt")

_B = ("zero", "one", "neg-one", "symbolic", "b-special:2", "v-inverse",
      "custom:[1,2]", "custom:[2,-1,3,1/2]", "custom:[0,1]", "custom:[1/2,0,3]")
# the custom lists with a zero entry make some lam_i zero
_LAMBDA = ("zero", "one", "neg-one", "symbolic", "bsq", "v-inverse", "dyck-v",
           "custom:[1,2]", "custom:[0]", "custom:[2,0]", "custom:[2,0,1]",
           "custom:[1,0,1]", "custom:[0,0,1]", "custom:[1,1,0,1,1]")
_ZERO_LAMBDA = tuple(lam for lam in _LAMBDA
                     if "0" in lam.removeprefix("custom:[").removesuffix("]").split(","))


def _argvs() -> List[str]:
    runs = []
    for b in _B:
        for lam in _LAMBDA:
            w = f"--b {b} --lambda {lam}"
            runs.append(f"moment --n 0..5 --k 2 {w}")
            runs.append(f"moment --n 1..3 --k 2 --negative {w}")
            runs.append(f"moment --n 1..2 --k 3 --negative --r 1 --s 3 {w}")
    # zero lam_i at larger bounds, where det A splits into several blocks
    for lam in _ZERO_LAMBDA + ("zero",):
        for b in ("symbolic", "b-special:2", "custom:[2,-1,3,1/2]", "custom:[1/2,0,3]"):
            runs.append(f"moment --n 1..4 --k 4 --negative --b {b} --lambda {lam}")
            runs.append(f"moment --n 1..3 --k 4 --negative --r 3 --s 1 --b {b} --lambda {lam}")
    runs += [
        "moment --n 1..6 --k 5 --negative --lambda custom:[1,0,1]",
        "moment --n 1..4 --k 3 --negative --lambda custom:[2,0]",
        "moment --n 1..4 --k 5 --negative --lambda custom:[1,1,0,1,1]",
        "moment --n 1..4 --k 5 --negative --lambda custom:[1,1,0,1,1] --r 5 --s 2",
        "moment --n 1..3 --k 6 --negative --lambda custom:[0,1,0,1,0]",
        "moment --n 1..4 --k 3 --negative --lambda custom:[2,0] --format json",
        "moment --n 1..4 --k 3 --negative --lambda custom:[2,0] --format csv",
    ]
    # bsq under custom b prefixes: a zero b_i makes lam_i and lam_{i+1} zero
    for b in ("custom:[2,-1,3,1/2]", "custom:[1,2]", "custom:[0,1]", "custom:[1,0]",
              "custom:[2,0,1]", "custom:[1/2,0,3]"):
        runs.append(f"moment --n 1..3 --k 3 --negative --b {b} --lambda bsq")
        runs.append(f"moment --n 0..4 --k 3 --b {b} --lambda bsq --r 3 --s 0")
    runs.append("moment --n 1..2 --k 4 --negative --b custom:[2,-1,3,1/2] --lambda bsq")
    for emit in ("count", "list", "weights"):
        for fam in ("motzkin --n 4 --k 2", "schroeder --n 3 --k 2", "pv --ell 2 --n 3 --k 2",
                    "alt --n 4 --k 2", "alt --n 3 --k 2 --pattern down-first",
                    "rpp --n 1 --m 2 --k 1", "pv --ell 3 --n 2 --k 2 --variant modified"):
            runs.append(f"sequence {fam} --emit {emit}")
        runs.append(f"sequence motzkin --n 4 --k 2 --emit {emit} --format json")
        runs.append(f"sequence alt --n 4 --k 2 --emit {emit} --format csv")
    # peak-valley sequences over both ells and variants, with the boundary
    # values pinned, one pinned, or neither, and a nonempty Schroeder family
    runs += [
        "sequence pv --ell 3 --n 4 --k 3 --r 1 --s 2 --emit list",
        "sequence pv --ell 3 --n 4 --k 3 --r 1 --s 2 --variant modified --emit list",
        "sequence pv --ell 2 --n 4 --k 3 --r 1 --s 2 --emit list",
        "sequence pv --ell 2 --n 5 --k 3 --emit count",
        "sequence pv --ell 3 --n 5 --k 4 --emit list",
        "sequence pv --ell 3 --n 0 --k 2 --r 0 --s 0 --emit count",
        "sequence pv --ell 3 --n 0 --k 2 --r 0 --s 0 --variant modified --emit count",
        "sequence pv --ell 3 --n 1 --k 4 --r 1 --s 1 --emit list",
        "sequence pv --ell 2 --n 1 --k 4 --r 3 --s 3 --emit list",
        "sequence pv --ell 3 --n 3 --k 3 --r 0 --s 2 --emit weights",
        "sequence pv --ell 3 --n 3 --k 4 --r 4 --emit list",
        "sequence pv --ell 2 --n 3 --k 4 --r 2 --emit list",
        "sequence pv --ell 3 --n 2 --k 5 --s 4 --variant modified --emit list",
        "sequence pv --ell 3 --n 6 --k 3 --variant modified --emit count",
        "sequence schroeder --n 6 --k 2 --emit list",
    ]
    # verify on the special weights reversed at k, whose negative moments
    # are signed alternating counts, with the negative bounds SKIPPED
    runs += [f"verify alt-cf --k=-2..8{fmt}" for fmt in ("", " --format json", " --format csv")]
    runs += [f"verify connection2 --n 0..8 --k 0..6{fmt}" for fmt in ("", " --format json")]
    # usage errors of the program's own checks (argparse's messages vary
    # between Python versions)
    runs += [
        "moment --n 5..1 --k 1",
        "moment --n 1..x --k 1",
        "moment --n=-2..1 --k 1",
        "moment --n 0..2 --k 2 --r 3",
        "moment --n 0..2 --k 2 --b custom:[1/0] --lambda one",
        "moment --n 0..2 --k 2 --b custom:[1,,2]",
        "moment --n 0..2 --k 2 --b bsq",
        "moment --n 0..2 --k 2 --lambda nonsense",
        "moment --n 0..3 --k 2 --negative --b zero --lambda one",
        "moment --n 0..3 --k 2 --negative --b custom:[1,1] --lambda custom:[1,0]",
        "moment --n 0..2 --k 2 --negative",
        "moment --n 1..2 --k 3 --negative --lambda zero --b custom:[1,0]",
        "sequence alt --n 1..3 --k 2",
        "sequence pv --n 3 --k 2",
        "sequence rpp --n 1 --k 2",
        "sequence alt --n 3 --k 2 --r 1",
        "verify ck --n 1..x",
    ]
    return runs


def run(argv: str) -> str:
    """sha256 of one run's stdout (its ``# elapsed`` line dropped), stderr
    and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(argv))
    text = "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.startswith("# elapsed "))
    return hashlib.sha256(f"{text}\0{err.getvalue()}\0{code}".encode()).hexdigest()


def recorded() -> Dict[str, str]:
    """argv -> digest of each line of the corpus file."""
    runs = {}
    for line in CORPUS.read_text().splitlines():
        digest, argv = line.split(" ", 1)
        runs[argv] = digest
    return runs


def differing() -> List[str]:
    """The argv of each recorded run whose digest changed."""
    return [argv for argv, digest in recorded().items() if run(argv) != digest]


def write() -> None:
    CORPUS.write_text("".join(f"{run(argv)} {argv}\n" for argv in _argvs()))


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    else:
        bad = differing()
        print(*bad, sep="\n") if bad else print(f"{len(recorded())} runs unchanged")
        sys.exit(1 if bad else 0)
