"""Command-line front end: moment tables, identity verification grids, and
raw sequence listings, in text, json, or csv.

Exit codes: 0 all (non-skipped) checks pass, 1 a verification failed,
2 usage error or an ill-defined request, 3 an unexpected internal error
(a bug: reported on stderr, and by ``verify`` per tuple as
``status=ERROR`` while the other tuples still run).  Each identity
declares its domain in the verify registry; a ``verify`` tuple outside
it, or one whose backward side is undefined (d = 0), is
``status=SKIPPED``, the reason in the json ``witness``.  Anything else
a check raises is ``status=ERROR``.  Output is byte-stable for fixed
inputs; the only timing appears in a trailing comment line of the text
format.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from . import paths, reciprocity
from .moments import (
    IllDefinedError,
    forward_moments,
    negative_moments,
    well_defined,
)
from .poly import MultiPoly
from .ratfunc import RatFunc
from .weights import WeightSpec, spec as make_spec

USAGE_ERROR = 2
FAIL_ERROR = 1
INTERNAL_ERROR = 3


def _parse_range(text: str, flag: str) -> List[int]:
    """`a..b` inclusive, or a single integer, given to the option ``flag``."""
    lo, dots, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"{flag} takes an integer or a range a..b, got {text!r}") from None
    if hi_i < lo_i:
        raise ValueError(f"empty range {text!r}")
    return list(range(lo_i, hi_i + 1))


def _render_value(v) -> str:
    if isinstance(v, (MultiPoly, RatFunc)):
        return v.render()
    return str(v)


class Report:
    """Rows with a stable schema, written per --format as ``add`` receives
    them; ``close`` ends the document (text: the ``# elapsed`` line).

    Nothing is written before the first row or ``close``, so a command
    that fails first leaves stdout empty.  The json document is byte-equal
    to ``json.dump(payload, indent=2, sort_keys=True)`` of the whole table,
    its ``results`` array streamed.
    """

    def __init__(self, command: str, params: Dict[str, object],
                 columns: Sequence[str], fmt: str):
        self.columns = list(columns)
        self.fmt = fmt
        if fmt == "json":
            import json   # the json format only: keeps start-up lean
            self.dumps = lambda obj: json.dumps(obj, indent=2, sort_keys=True)
            # "results" sorts last: the head is the document up to its "["
            doc = {"command": command,
                   "params": {k: str(v) for k, v in params.items()},
                   "results": []}
            self.head = self.dumps(doc)[:-len("]\n}")]
        else:
            self.head = ",".join(self.columns) + "\n" if fmt == "csv" else ""
        self.out = sys.stdout
        self.rows = 0
        self.started = time.monotonic()

    def add(self, *cells: object):
        row = [str(c) for c in cells]
        if not self.rows:
            self.out.write(self.head)
        if self.fmt == "json":
            item = self.dumps(dict(zip(self.columns, row)))
            self.out.write((",\n    " if self.rows else "\n    ") + item.replace("\n", "\n    "))
        elif self.fmt == "csv":
            self.out.write(",".join(cell.replace(",", ";") for cell in row) + "\n")
        else:
            self.out.write(" ".join(row) + "\n")
        self.rows += 1

    def close(self) -> None:
        if not self.rows:
            self.out.write(self.head)
        if self.fmt == "json":
            self.out.write("\n  ]\n}\n" if self.rows else "]\n}\n")
        elif self.fmt == "text":
            elapsed = time.monotonic() - self.started
            self.out.write(f"# elapsed {elapsed:.3f}s\n")


def _build_spec(args) -> WeightSpec:
    return make_spec(args.b, args.lam)


def cmd_moment(args) -> int:
    spec = _build_spec(args)
    ns = _parse_range(args.n, "moment --n")
    if not (0 <= args.r <= args.k and 0 <= args.s <= args.k):
        sys.stderr.write(f"error: heights r = {args.r}, s = {args.s} "
                         f"must lie in [0, k = {args.k}]\n")
        return USAGE_ERROR
    if not args.negative and ns[0] < 0:
        sys.stderr.write("error: moment indices start at 0; "
                         "negative indices need --negative\n")
        return USAGE_ERROR
    report = Report("moment",
                    {"n": args.n, "r": args.r, "s": args.s, "k": args.k,
                     "b": args.b, "lambda": args.lam,
                     "negative": args.negative},
                    ["n", "value"], args.format)
    if args.negative:
        ok, cert = well_defined(args.k, spec)
        if not ok:
            sys.stderr.write(
                f"error: negative moments undefined: P_{args.k + 1}(0) = "
                f"{cert.render()}\n")
            return USAGE_ERROR
        if ns[0] < 1:
            sys.stderr.write("error: negative moment indices start at 1\n")
            return USAGE_ERROR
        vals = negative_moments(ns[-1], args.r, args.s, args.k, spec)
        for n in ns:
            report.add(n, _render_value(vals[n - 1]))
    else:
        seq = forward_moments(ns[-1], args.r, args.s, args.k, spec)
        for n in ns:
            report.add(n, _render_value(seq[n]))
    report.close()
    return 0


def cmd_sequence(args) -> int:
    fam = args.family
    try:
        n = int(args.n)
    except ValueError:
        raise ValueError(f"sequence --n takes one integer, got {args.n!r}") from None
    report = Report("sequence",
                    {"family": fam, "n": args.n, "k": args.k, "m": args.m,
                     "ell": args.ell, "emit": args.emit},
                    ["item", "weight"] if args.emit == "weights" else ["item"],
                    args.format)
    if fam == "motzkin":
        objs = paths.motzkin_paths(n, args.r or 0, args.s or 0, args.k)
        enc = paths.encode_motzkin
        factors = lambda p: paths.motzkin_factors(p, args.r or 0)
    elif fam == "schroeder":
        objs = paths.schroeder_paths(n, args.k)
        enc = paths.encode_schroeder
        factors = paths.schroeder_factors
    elif fam == "pv":
        if args.ell is None:
            sys.stderr.write("error: pv needs --ell\n")
            return USAGE_ERROR
        objs = paths.pv_sequences(args.ell, n, args.k,
                                  modified=args.variant == "modified", r=args.r, s=args.s)
        enc = paths.encode_seq
        factors = paths.seq_v_factors
    elif fam == "alt":
        if (args.r is None) != (args.s is None):
            sys.stderr.write("error: alt pins both endpoints, --r and --s, or neither\n")
            return USAGE_ERROR
        endpoints = None if args.r is None else (args.r, args.s)
        objs = paths.alt_sequences(n, args.k, down_first=args.pattern == "down-first",
                                   endpoints=endpoints)
        enc = paths.encode_seq
        factors = lambda p: (paths.seq_av_factors if len(p) % 2 else paths.seq_v_factors)(p)
    elif fam == "rpp":
        if args.m is None:
            sys.stderr.write("error: rpp needs --m\n")
            return USAGE_ERROR
        objs = paths.rpp_fillings(n, args.m, args.k)
        enc = lambda T: paths.encode_rpp(T, n, args.m)
        factors = lambda T: paths.rpp_factors(T, n)
    else:
        sys.stderr.write(f"error: unknown family {fam!r}\n")
        return USAGE_ERROR
    if args.emit == "count":
        report.add(paths.count(objs))
    elif args.emit == "list":
        for o in objs:
            report.add(enc(o))
    else:
        for o in objs:
            report.add(enc(o), paths.weight_sum((o,), factors).render())
    report.close()
    return 0


# -- verify ---------------------------------------------------------------------

# --spec name -> the (b, lambda) expressions of the main reciprocity's weights
_SPECS = {
    "symbolic": ("symbolic", "symbolic"),
    "zero-one": ("zero", "one"),
    "one-one": ("one", "one"),
}


def _late(name: str):
    """The check ``reciprocity.<name>``, looked up at each call, so that a
    wrapper bound there after import (the benchmark's tracer) sees it."""
    return lambda **params: getattr(reciprocity, name)(**params)


def _check_main(n: int, k: int, m: int, spec: str = "symbolic") -> reciprocity.IdentityCheck:
    """The main reciprocity on the weights that ``--spec`` names."""
    return reciprocity.check_main_reciprocity(n, k, m, make_spec(*_SPECS[spec]))


# domain rules shared by several identities
_NEG_INDEX = ("negative index n must be >= 1", lambda n, **_: n >= 1)
_POSITIVE = ("needs positive n, k, m", lambda n, k, m, **_: min(n, k, m) >= 1)
_BOUND = ("bound k must be nonnegative", lambda k, **_: k >= 0)
_CUTOFF = ("b-special needs a nonnegative cutoff", lambda k, **_: k >= 0)
_K_POSITIVE = ("needs k >= 1", lambda k, **_: k >= 1)
_K_NONNEGATIVE = ("needs k >= 0", lambda k, **_: k >= 0)

# identity -> (check, parameter names, default --r/--s range at height k,
# domain).  The check takes the parameters by name; their order is the order
# of the ``params=`` column and the grid's sort key.  The domain is the
# identity's hypotheses, as ordered (reason, predicate) rules over the
# parameters: a tuple that fails one is SKIPPED with the first failing
# rule's reason, and its check is not called.  Inside the domain, a check
# that raises IllDefinedError (d = 0) is SKIPPED too; anything else it
# raises is an ERROR.
_IDENTITIES = {
    "ck": (_late("check_ck"), "n k", None, (_NEG_INDEX, _K_POSITIVE)),
    "ck-rs": (_late("check_ck_rs"), "n k r s", lambda k: range(1, k + 1), (
        ("endpoints must lie in [1, k]", lambda k, r, s, **_: 1 <= r <= k and 1 <= s <= k),
        _NEG_INDEX)),
    "thm15": (_late("check_theorem15"), "n k m", None, (   # both grids are empty at k = m = 0
        ("needs n, k, m >= 0", lambda n, k, m: min(k, m) >= 0 and (n >= 0 or k + m == 0)),)),
    "main": (_check_main, "n k m spec", None, (_POSITIVE,)),
    "conj50": (_late("check_conjecture50"), "n k m", None, (
        ("needs k, m >= 0", lambda n, k, m: min(k, m) >= 0),
        ("n must be nonnegative", lambda n, k, m: n >= 0 or m == 0))),   # alternating counts
    "conj53": (_late("check_conjecture53"), "n k m", None, (
        ("k+m = 2 (mod 3): backward side undefined", lambda n, k, m: (k + m) % 3 != 2),
        _POSITIVE)),
    "thm34": (_late("check_theorem34"), "n k m", None, (_POSITIVE,)),
    "rpp": (_late("check_rpp_identity"), "n m k mode", None, (
        ("needs m >= 1, n >= 0, k >= 0", lambda n, m, k, mode: m >= 1 and min(n, k) >= 0),)),
    "pv2": (_late("check_pv2"), "n k", None, (_NEG_INDEX, _K_POSITIVE)),
    "pv3a": (_late("check_pv3a"), "n k", None, (_NEG_INDEX, _K_POSITIVE)),
    "pv3b": (_late("check_pv3b"), "n k", None, (_NEG_INDEX, _K_NONNEGATIVE)),
    "pv3-rs": (_late("check_pv3_rs"), "n k r s", lambda k: range(0, 3 * k + 1), (
        ("endpoints exceed both bounds", lambda n, k, r, s: 0 <= r <= 3 * k and 0 <= s <= 3 * k),
        _NEG_INDEX)),
    "usmani": (_late("check_usmani"), "k", None, (_BOUND,)),
    "vv-inv": (_late("check_vv_inverse"), "k", None, (
        ("k = 1 (mod 3): matrix singular", lambda k: k % 3 != 1), _BOUND)),
    "sigma": (_late("check_sigma"), "n k", None, (_NEG_INDEX, _K_NONNEGATIVE)),
    "alt-cf": (_late("check_alt_cf"), "k", None, (_BOUND,)),
    "special-dets": (_late("check_special_dets"), "k", None, (   # transfer matrices at bound k-1
        ("bound k must be nonnegative", lambda k: k >= 1),)),
    "connection1": (_late("check_connection1"), "n k", None, (
        _CUTOFF, ("use negative_moment for negative indices", lambda n, k: n >= 0))),
    "connection2": (_late("check_connection2"), "n k", None, (
        _CUTOFF, ("n must be nonnegative", lambda n, k: n >= 0))),
    "dyck-motzkin": (_late("check_dyck_motzkin_connection"), "n k", None, (
        ("needs n >= 0, k >= 1", lambda n, k: n >= 0 and k >= 1),)),
    "alt-transfer": (_late("check_alt_transfer_counts"), "n k", None, (
        ("needs n, k >= 0", lambda n, k: min(n, k) >= 0),)),
}
IDENTITIES = list(_IDENTITIES)


def _verify_grid(identity: str, args) -> List[Dict[str, object]]:
    """One identity's parameter tuples from the range flags (n, k, m
    default to 1), sorted on their values in parameter-name order."""
    values = {f: _parse_range(getattr(args, f), f"verify --{f}") if getattr(args, f) else None
              for f in "nkmrs"}
    values["spec"], values["mode"] = [args.spec], [args.mode]
    _, names, rs_range, _ = _IDENTITIES[identity]
    grid: List[Dict[str, object]] = [{}]
    for name in names.split():
        grid = [{**p, name: v} for p in grid
                for v in values[name] or (rs_range(p["k"]) if name in ("r", "s") else [1])]
    return sorted(grid, key=lambda p: tuple(p.values()))


def run_check(identity: str, params: Dict) -> reciprocity.IdentityCheck:
    """One verification tuple (picklable for worker pools): SKIPPED with the
    reason of the first domain rule the params fail, else the check's own
    result."""
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    check, _, _, domain = _IDENTITIES[identity]
    for reason, holds in domain:
        if not holds(**params):
            return reciprocity.skipped(identity, params, reason)
    return check(**params)


def _run_one(job):
    identity, params = job
    try:
        check = run_check(identity, params)
    except IllDefinedError as exc:   # d = 0: the backward side is undefined
        return params, "SKIPPED", str(exc)
    except Exception as exc:
        import traceback   # the error path only: keeps start-up lean
        traceback.print_exc()
        return params, "ERROR", f"{type(exc).__name__}: {exc}"
    return params, check.status, check.witness or check.reason


def worker_count(text: Optional[str], cpus: Optional[int]) -> int:
    """Worker processes from ``NEGMOM_THREADS`` (1 when unset): a positive
    integer, clamped to ``cpus``; anything else is a usage error."""
    if text is None:
        return 1
    n = int(text) if text.strip().isdecimal() else 0
    if n < 1:
        raise ValueError(f"NEGMOM_THREADS must be a positive integer, got {text!r}")
    return min(n, cpus or 1)


def cmd_verify(args) -> int:
    identity = args.identity
    try:
        grid = _verify_grid(identity, args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    as_json = args.format == "json"
    report = Report("verify", {"identity": identity},   # starts the clock
                    ["identity", "params", "status", "witness"] if as_json else ["line"],
                    args.format)
    jobs = [(identity, params) for params in grid]
    workers = worker_count(os.environ.get("NEGMOM_THREADS"), os.cpu_count())
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]
    for params, status, witness in results:   # map keeps the grid's order
        ptxt = ",".join(f"{k}={v}" for k, v in params.items())
        if as_json:
            report.add(identity, ptxt, status, witness or "")
            continue
        line = f"{identity} params={ptxt} status={status}"
        if status == "FAIL" and witness:
            line += f" witness={witness}"
        elif status == "ERROR":
            line += f" error={witness}"
        report.add(line)
    report.close()
    statuses = {r[1] for r in results}
    return INTERNAL_ERROR if "ERROR" in statuses else FAIL_ERROR if "FAIL" in statuses else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call (not at import)
    and shared by every later one: parsing leaves it unchanged.  This
    pays only where one process calls ``main`` more than once (the test
    suite, a benchmark worker); a console-script run builds one parser
    either way.  It names each subcommand (``command``) but binds no
    function, so ``main`` looks its ``cmd_*`` up when it runs."""
    parser = argparse.ArgumentParser(
        prog="negmom",
        description="Exact bounded/negative moment computations and "
                    "identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_m = sub.add_parser("moment", help="table of bounded or negative moments")
    p_m.add_argument("--n", required=True, help="index or range a..b")
    p_m.add_argument("--r", type=int, default=0)
    p_m.add_argument("--s", type=int, default=0)
    p_m.add_argument("--k", type=int, required=True, help="height bound")
    p_m.add_argument("--b", default="symbolic", help="b-sequence expression")
    p_m.add_argument("--lambda", dest="lam", default="symbolic",
                     help="lambda-sequence expression")
    p_m.add_argument("--negative", action="store_true")
    p_m.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_v = sub.add_parser("verify", help="run an identity over parameter ranges")
    p_v.add_argument("identity", choices=IDENTITIES)
    p_v.add_argument("--n", help="range a..b")
    p_v.add_argument("--k", help="range a..b")
    p_v.add_argument("--m", help="range a..b")
    p_v.add_argument("--r", help="range a..b")
    p_v.add_argument("--s", help="range a..b")
    p_v.add_argument("--spec", default="symbolic", choices=list(_SPECS),
                     help="weight spec for the main reciprocity")
    p_v.add_argument("--mode", default="symbolic-VA",
                     choices=["symbolic-VA", "q", "q-unbounded"])
    p_v.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_s = sub.add_parser("sequence", help="enumerate a combinatorial family")
    p_s.add_argument("family", choices=["alt", "pv", "schroeder", "motzkin", "rpp"])
    p_s.add_argument("--n", required=True)
    p_s.add_argument("--k", type=int, required=True)
    p_s.add_argument("--m", type=int)
    p_s.add_argument("--ell", type=int)
    p_s.add_argument("--r", type=int)
    p_s.add_argument("--s", type=int)
    p_s.add_argument("--variant", choices=["plain", "modified"], default="plain")
    p_s.add_argument("--pattern", choices=["up-first", "down-first"],
                     default="up-first")
    p_s.add_argument("--emit", choices=["count", "list", "weights"],
                     default="count")
    p_s.add_argument("--format", choices=["text", "json", "csv"], default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the names are looked up at each call, so that a wrapper bound
        # after the parser was built (a tracer, a test's patch) is the one run
        commands = {"moment": cmd_moment, "verify": cmd_verify, "sequence": cmd_sequence}
        code = commands[args.command](args)
        sys.stdout.flush()   # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): nothing is left to report,
        # and the interpreter's last flush must not fail on the dead pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, IllDefinedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:
        import traceback   # the error path only: keeps start-up lean
        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
