"""The benchmark's workloads and the check of every output they produce.

A workload is a fixed list of ``negmom`` CLI invocations run one after
another by one client (a closed loop).  The seed only draws the rational
weights of the ``numeric-oracle`` moment tables; negmom sees nothing but
the generated argv.  Each invocation has a time limit of about three
times its run time at the benchmark's first commit on a 2-core x86
container, and at least 5 s; a failed invocation is charged that limit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import reference


@dataclass(frozen=True)
class Invocation:
    argv: Tuple[str, ...]
    limit_s: float
    expected_count: Optional[int] = None   # recorded value for `sequence` counts

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Tuple[Invocation, ...]
    # per-layer counts that must be non-zero in a traced run of this
    # workload, so that a wrapper missing from a binding site shows
    dominant: Tuple[str, ...]


# (full argv, tiny argv, limit in s); the tiny sizes drive the self-test
_SYMBOLIC_GRID = (
    ("verify main --n 1..3 --k 1..2 --m 1..2", "verify main --n 1 --k 1 --m 1", 5),
    ("verify main --n 1..2 --k 1 --m 3", "verify main --n 1 --k 1 --m 2", 8),
    ("verify main --n 1 --k 3 --m 2", "verify main --n 1 --k 2 --m 1", 5),
    ("verify thm34 --n 1..3 --k 1..2 --m 1..2", "verify thm34 --n 1 --k 1 --m 1", 5),
    ("verify connection2 --n 0..6 --k 1..3", "verify connection2 --n 0..2 --k 1..2", 5),
    ("verify connection2 --n 0..5 --k 4", "verify connection2 --n 0..1 --k 3", 5),
    ("moment --n 0..18 --k 4", "moment --n 0..6 --k 2", 6),
)

# The last invocation raises ExactDivisionError (float division in
# poly_div_exact's constant-divisor branch); it stays, counted as failed.
_RATIONAL_BACKWARD = (
    ("verify usmani --k 1..5", "verify usmani --k 1..3", 20),
    ("moment --n 1..3 --k 2 --negative", "moment --n 1..2 --k 1 --negative", 5),
    ("moment --n 1..3 --k 3 --negative --lambda one",
     "moment --n 1..3 --k 3 --negative --lambda one", 10),
)

_NUMERIC_ORACLE = (
    ("moment --n 0..400 --k 12 --b {b12} --lambda {lam12}",
     "moment --n 0..20 --k 3 --b {b3} --lambda {lam3}", 5),
    ("moment --n 1..100 --k 10 --negative --b {b10} --lambda {lam10}",
     "moment --n 1..5 --k 2 --negative --b {b2} --lambda {lam2}", 6),
    ("verify ck --n 1..4 --k 1..3", "verify ck --n 1 --k 1", 5),
    ("verify ck-rs --n 1..3 --k 1..3", "verify ck-rs --n 1 --k 1..2", 5),
    ("verify pv3-rs --n 1..3 --k 1..2", "verify pv3-rs --n 1 --k 1", 6),
    ("verify thm15 --n 0..2 --k 0..2 --m 0..2", "verify thm15 --n 1 --k 0..1 --m 1", 5),
    ("verify conj50 --n 0..2 --k 0..2 --m 0..2", "verify conj50 --n 1 --k 0..1 --m 1", 5),
    ("verify conj53 --n 1..2 --k 1..2 --m 1..2", "verify conj53 --n 1 --k 1..2 --m 1", 5),
    ("verify rpp --n 0..1 --m 1..2 --k 0..2 --mode q", "verify rpp --n 0 --m 1 --k 1 --mode q", 5),
    ("verify sigma --n 1..3 --k 1..2", "verify sigma --n 1 --k 1", 5),
    ("verify pv2 --n 1..3 --k 1..2", "verify pv2 --n 1 --k 1", 5),
    ("verify pv3a --n 1..3 --k 1..2", "verify pv3a --n 1 --k 1", 5),
    ("verify pv3b --n 1..3 --k 1..2", "verify pv3b --n 1 --k 1", 5),
    ("verify alt-cf --k 1..4", "verify alt-cf --k 1..2", 5),
    ("verify special-dets --k 1..6", "verify special-dets --k 1..3", 5),
    ("sequence alt --n 13 --k 4", "sequence alt --n 7 --k 3", 5),
    ("sequence pv --ell 3 --n 9 --k 5", "sequence pv --ell 3 --n 4 --k 3", 5),
    ("sequence rpp --n 2 --m 2 --k 3", "sequence rpp --n 1 --m 1 --k 2", 5),
    ("sequence motzkin --n 14 --k 3", "sequence motzkin --n 6 --k 2", 5),
)

# Sequence counts, each checked once against reference.count_* (a dynamic
# programme that shares no code with negmom's enumerators; see selftest.py).
RECORDED_COUNTS = {
    "sequence alt --n 13 --k 4": 1160693,
    "sequence pv --ell 3 --n 9 --k 5": 206897,
    "sequence rpp --n 2 --m 2 --k 3": 77077,
    "sequence motzkin --n 14 --k 3": 98514,
    "sequence alt --n 7 --k 3": 353,
    "sequence pv --ell 3 --n 4 --k 3": 20,
    "sequence rpp --n 1 --m 1 --k 2": 14,
    "sequence motzkin --n 6 --k 2": 50,
}

_TABLES = {"symbolic-grid": _SYMBOLIC_GRID, "rational-backward": _RATIONAL_BACKWARD,
           "numeric-oracle": _NUMERIC_ORACLE}
_DOMINANT = {"symbolic-grid": ("matrix.det.calls", "poly.mul.calls"),
             "rational-backward": ("poly.gcd.calls", "ratfunc.normalize.calls"),
             "numeric-oracle": ("paths.enum.calls", "moments.well_defined.calls")}
NAMES = tuple(_TABLES)


def _seeded_weights(rng: random.Random, k: int) -> Dict[str, str]:
    """Positive rational b_0..b_k and lam_1..lam_k with an invertible
    transfer matrix, so that negative moments exist."""
    while True:
        b = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k + 1)]
        lam = [None] + [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]
        if reference.gauss_jordan_inverse(reference.transfer_rows(k, b, lam)) is not None:
            return {f"b{k}": "custom:[" + ",".join(map(str, b)) + "]",
                    f"lam{k}": "custom:[" + ",".join(map(str, lam[1:])) + "]"}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The invocation list of one workload for one seed."""
    rng = random.Random(seed)
    weights: Dict[str, str] = {}
    for k in (12, 10, 3, 2):
        weights.update(_seeded_weights(rng, k))
    invocations = []
    for full, small, limit in _TABLES[name]:
        text = (small if tiny else full).format(**weights)
        invocations.append(Invocation(tuple(text.split()), float(limit),
                                      RECORDED_COUNTS.get(text)))
    return Workload(name, tuple(invocations), _DOMINANT[name])


# -- output checks ---------------------------------------------------------------------

def _options(argv) -> Dict[str, str]:
    opts: Dict[str, str] = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            opts[tok] = "" if nxt.startswith("--") or not nxt else nxt
    return opts


_VERIFY_ROW = re.compile(r"(\S+) params=(\S*) status=(\S+)")


class Checker:
    """Checks CLI output against the references, caching verdicts, so the
    identical output of repeated passes is checked once."""

    def __init__(self):
        self._cache: Dict[Tuple, Optional[str]] = {}

    def check(self, inv: Invocation, stdout: str) -> Optional[str]:
        """None when the output is right, else the first difference found."""
        lines = [ln for ln in stdout.splitlines() if not ln.startswith("# ")]
        key = (inv.argv, inv.expected_count, tuple(lines))
        if key not in self._cache:
            command = inv.argv[0]
            try:
                if command == "verify":
                    verdict = self._verify(inv.argv, lines)
                elif command == "moment":
                    verdict = self._moment(inv.argv, lines)
                else:
                    want = [str(inv.expected_count)]
                    verdict = None if lines == want else f"count {lines} != {want}"
            except (ValueError, SyntaxError) as exc:   # output the parsers cannot read
                verdict = f"unreadable output: {exc}"
            self._cache[key] = verdict
        return self._cache[key]

    @staticmethod
    def _verify(argv, lines: List[str]) -> Optional[str]:
        expected = reference.expected_verify_rows(argv[1], _options(argv))
        seen = set()
        for line in lines:
            m = _VERIFY_ROW.match(line)
            if not m or m.group(1) != argv[1]:
                return f"unparsable row {line!r}"
            key = tuple(sorted(tuple(p.split("=", 1)) for p in m.group(2).split(",")))
            want = expected.get(key)
            if want != m.group(3):
                return f"row {line!r}: expected status {want}"
            seen.add(key)
        missing = set(expected) - seen
        return f"{len(missing)} rows missing" if missing else None

    @staticmethod
    def _moment(argv, lines: List[str]) -> Optional[str]:
        opts = _options(argv)
        ns = reference.parse_range(opts["--n"])
        k, r, s = int(opts["--k"]), int(opts.get("--r", 0)), int(opts.get("--s", 0))
        b = reference.parse_weights(opts.get("--b", "symbolic"), "b", k)
        lam = reference.parse_weights(opts.get("--lambda", "symbolic"), "lam", k)
        rows = [line.split(" ", 1) for line in lines]
        if [int(row[0]) for row in rows] != ns or any(len(row) != 2 for row in rows):
            return f"table rows do not list n = {opts['--n']}"
        if "--negative" not in opts:
            ref = reference.forward_moments(k, b, lam, max(ns), r, s)
            same = [reference.parse_poly(text) == ref[n] for n, (_, text) in zip(ns, rows)]
        elif all(isinstance(w, Fraction) for w in b + lam[1:]):
            ref = reference.negative_moments_numeric(k, b, lam, max(ns), r, s)
            same = [reference.parse_poly(text) == ({(): ref[n - 1]} if ref[n - 1] else {})
                    for n, (_, text) in zip(ns, rows)]
        else:
            if (r, s) != (0, 0):
                raise ValueError("symbolic negative references cover r = s = 0 only")
            ref = reference.negative_moments_sympy(k, b, lam, max(ns))
            same = [reference.sympy_equal(text, ref[n - 1]) for n, (_, text) in zip(ns, rows)]
        bad = [n for n, ok in zip(ns, same) if not ok]
        return f"values differ from the reference at n = {bad}" if bad else None
