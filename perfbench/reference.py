"""Reference values the benchmark checks negmom's output against.

Nothing here imports negmom.  Moment tables are recomputed by the
benchmark's own exact recurrences (a dict-of-monomials polynomial for
symbolic weights, ``Fraction`` arithmetic for numeric ones), the small
symbolic negative tables by sympy, and sequence counts by dynamic
programmes that share no code with negmom's enumerators.  Verify rows are
checked against the status each identity's domain prescribes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
Poly = Dict[Monomial, Fraction]
Weight = Union[Fraction, str]          # a number, or a variable name such as "lam3"

_FACTOR = re.compile(r"([A-Za-z]+\d*)(?:\^(-?\d+))?$")
_COEFF = re.compile(r"\d+(?:/\d+)?$")


# -- rendered polynomials --------------------------------------------------------

def parse_poly(text: str) -> Poly:
    """Parse negmom's rendered polynomial text (``3/4*b0^2*lam1 - x + 2``)."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    out: Poly = {}
    for idx in range(0, len(pieces), 2):
        if idx:
            sign = 1 if pieces[idx - 1] == "+" else -1
        coeff = Fraction(sign)
        exps: Dict[str, int] = {}
        for factor in pieces[idx].split("*"):
            if _COEFF.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            exps[m.group(1)] = exps.get(m.group(1), 0) + int(m.group(2) or 1)
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        out[mono] = out.get(mono, 0) + coeff
        if not out[mono]:
            del out[mono]
    return out


# -- weights as written on the command line --------------------------------------------

def parse_weights(expr: str, family: str, k: int) -> List[Optional[Weight]]:
    """Entries 0..k of one weight sequence (``lam`` has no entry 0).

    Understands the expressions the workloads use: ``symbolic``, ``zero``,
    ``one`` and ``custom:[c1,...]`` (continued symbolically past its end).
    """
    lo = 1 if family == "lam" else 0
    if expr.startswith("custom:[") and expr.endswith("]"):
        vals = [Fraction(t) for t in expr[len("custom:["):-1].split(",") if t.strip()]
    elif expr in ("zero", "one"):
        vals = [Fraction(expr == "one")] * (k + 1)
    elif expr == "symbolic":
        vals = []
    else:
        raise ValueError(f"no reference for weight expression {expr!r}")
    out: List[Optional[Weight]] = [None] * lo
    for i in range(lo, k + 1):
        pos = i - lo
        out.append(vals[pos] if pos < len(vals) else f"{family}{i}")
    return out


# -- moment tables -----------------------------------------------------------------------

def forward_moments(k: int, b: Sequence[Weight], lam: Sequence[Optional[Weight]],
                    n_max: int, r: int = 0, s: int = 0) -> List[Poly]:
    """mu_{n,r,s} for n = 0..n_max by stepping the row vector e_r^T A^n.

    Inside the loop a monomial is a tuple of exponents, one slot per
    symbolic weight; the results are converted to parse_poly's form.
    """
    names = sorted({w for w in list(b) + list(lam) if isinstance(w, str)})
    slot = {name: i for i, name in enumerate(names)}

    def times(p: Dict[Tuple[int, ...], Fraction], w: Weight):
        if isinstance(w, Fraction):
            return {m: c * w for m, c in p.items()} if w else {}
        i = slot[w]
        return {m[:i] + (m[i] + 1,) + m[i + 1:]: c for m, c in p.items()}

    def add_into(acc, p) -> None:
        for m, c in p.items():
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                del acc[m]

    unit = (0,) * len(names)
    u = [{unit: 1} if i == r else {} for i in range(k + 1)]
    out = [u[s]]
    for _ in range(n_max):
        nu = []
        for j in range(k + 1):
            acc = times(u[j], b[j])
            if j > 0:
                add_into(acc, u[j - 1])
            if j < k:
                add_into(acc, times(u[j + 1], lam[j + 1]))
            nu.append(acc)
        u = nu
        out.append(u[s])
    return [{tuple((names[i], e) for i, e in enumerate(m) if e): c for m, c in p.items()}
            for p in out]


def transfer_rows(k: int, b: Sequence[Fraction], lam: Sequence[Optional[Fraction]]):
    return [[b[i] if i == j else Fraction(1) if j == i + 1 else
             lam[i] if j == i - 1 else Fraction(0) for j in range(k + 1)]
            for i in range(k + 1)]


def gauss_jordan_inverse(rows: List[List[Fraction]]) -> Optional[List[List[Fraction]]]:
    """Exact inverse over the rationals; None when the matrix is singular."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * c for a, c in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def negative_moments_numeric(k: int, b, lam, n_max: int, r: int = 0,
                             s: int = 0) -> List[Fraction]:
    """[mu_{-1}, ..., mu_{-n_max}] = (A^{-n})_{r,s} for numeric weights."""
    inv = gauss_jordan_inverse(transfer_rows(k, b, lam))
    if inv is None:
        raise ValueError("transfer matrix is singular")
    u = [Fraction(int(i == r)) for i in range(k + 1)]
    out = []
    for _ in range(n_max):
        u = [sum(u[t] * inv[t][j] for t in range(k + 1)) for j in range(k + 1)]
        out.append(u[s])
    return out


def negative_moments_sympy(k: int, b, lam, n_max: int):
    """[mu_{-1}, ..., mu_{-n_max}] = (A^{-n})_{0,0} as sympy expressions."""
    import sympy

    def sym(w):
        return sympy.Symbol(w) if isinstance(w, str) else sympy.Rational(w.numerator, w.denominator)

    A = sympy.Matrix(k + 1, k + 1, lambda i, j: sym(b[i]) if i == j else 1 if j == i + 1
                     else sym(lam[i]) if j == i - 1 else 0)
    inv = (A.adjugate() / A.det()).applyfunc(sympy.cancel)
    power, out = sympy.eye(k + 1), []
    for _ in range(n_max):
        power = (power * inv).applyfunc(sympy.cancel)
        out.append(power[0, 0])
    return out


def sympy_equal(text: str, ref) -> bool:
    """Whether negmom's rendered value equals the sympy expression ref."""
    import sympy

    names = {str(s): s for s in ref.free_symbols}
    got = sympy.parse_expr(text.replace("^", "**"), local_dict=names)
    return sympy.cancel(got - ref) == 0


# -- sequence counts -------------------------------------------------------------------

def count_motzkin(n: int, k: int) -> int:
    """Motzkin paths of length n from height 0 to 0 staying within [0, k]."""
    ways = [1] + [0] * k
    for _ in range(n):
        ways = [ways[h] + (ways[h - 1] if h else 0) + (ways[h + 1] if h < k else 0)
                for h in range(k + 1)]
    return ways[0]


def count_alt(n: int, k: int) -> int:
    """Sequences a1 <= a2 >= a3 <= ... of length n over {1..k}."""
    if n == 0:
        return 1
    ways = [1] * k                       # ways[v-1]: sequences ending in v
    for pos in range(2, n + 1):
        rising = pos % 2 == 0
        ways = [sum(ways[:v + 1]) if rising else sum(ways[v:]) for v in range(k)]
    return sum(ways)


def count_pv(ell: int, n: int, k: int) -> int:
    """Plain peak-valley sequences: entries in [0, k], padded by 0 at both
    ends; an entry = 0 (mod ell) is a strict valley, an entry = ell-1
    (mod ell) a strict peak."""
    def ok(prev: int, cur: int, nxt: int) -> bool:
        if cur % ell == 0:
            return prev > cur < nxt
        if cur % ell == ell - 1:
            return prev < cur > nxt
        return True

    if n == 0:
        return 1
    ways = {(0, v): 1 for v in range(k + 1)}   # (previous entry, last entry)
    for _ in range(n - 1):
        nxt: Dict[Tuple[int, int], int] = {}
        for (p, c), w in ways.items():
            for v in range(k + 1):
                if ok(p, c, v):
                    nxt[(c, v)] = nxt.get((c, v), 0) + w
        ways = nxt
    return sum(w for (p, c), w in ways.items() if ok(p, c, 0))


def count_rpp(n: int, m: int, k: int) -> int:
    """Fillings of the skew staircase (n+2m)/(n) with entries in [0, k]
    weakly increasing along rows and down columns, counted row by row."""
    p = n + 2 * m
    rows = [(max(n - i, 0) + 1, p - i) for i in range(1, p + 1)]  # column span per row
    rows = [(lo, hi) for lo, hi in rows if lo <= hi]

    def fillings(length: int):
        if length == 0:
            yield ()
            return
        for head in range(k + 1):
            for tail in fillings(length - 1):
                if not tail or head <= tail[0]:
                    yield (head,) + tail

    ways: Dict[Tuple[int, Tuple[int, ...]], int] = {(1, ()): 1}
    for lo, hi in rows:
        nxt: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for row in fillings(hi - lo + 1):
            total = 0
            for (plo, prow), w in ways.items():
                above = {plo + t: v for t, v in enumerate(prow)}
                if all(v >= above.get(lo + t, 0) for t, v in enumerate(row)):
                    total += w
            if total:
                nxt[(lo, row)] = total
        ways = nxt
    return sum(ways.values())


# -- verify rows -------------------------------------------------------------------------

def parse_range(text: Optional[str], default: Sequence[int] = ()) -> List[int]:
    """The CLI's ``a..b`` (inclusive) or ``a``; default when absent."""
    if not text:
        return list(default)
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def expected_verify_rows(identity: str, opts: Dict[str, str]) -> Dict[Tuple, str]:
    """Sorted (name, value) parameter pairs -> expected status, per grid row.

    Every identity holds on its domain, so each row is PASS except where
    the domain excludes the tuple: main, thm34 and conj53 need positive
    n, k, m; conj53's backward side is undefined for k+m = 2 (mod 3); rpp
    needs m >= 1; ck-rs pins endpoints in [1, k]; pv3-rs needs an endpoint
    pair inside one of its two bounds 3k-1 and 3k; vv-inv is singular for
    k = 1 (mod 3).
    """
    ns, ks, ms = (parse_range(opts.get(f), [1]) for f in ("--n", "--k", "--m"))
    rows: Dict[Tuple, str] = {}

    def add(status_skip: bool, **params):
        key = tuple(sorted((name, str(v)) for name, v in params.items()))
        rows[key] = "SKIPPED" if status_skip else "PASS"

    for n in ns:
        for k in ks:
            if identity in ("ck", "pv2", "pv3a", "pv3b", "sigma", "connection1", "connection2"):
                add(False, n=n, k=k)
            elif identity == "ck-rs":
                for r in parse_range(opts.get("--r"), range(1, k + 1)):
                    for s in parse_range(opts.get("--s"), range(1, k + 1)):
                        add(not (1 <= r <= k and 1 <= s <= k), n=n, k=k, r=r, s=s)
            elif identity == "pv3-rs":
                for r in parse_range(opts.get("--r"), range(3 * k + 1)):
                    for s in parse_range(opts.get("--s"), range(3 * k + 1)):
                        add(max(r, s) > 3 * k or min(r, s) < 0, n=n, k=k, r=r, s=s)
            elif identity in ("thm15", "conj50"):
                for m in ms:
                    add(False, n=n, k=k, m=m)
            elif identity in ("thm34", "conj53", "main"):
                for m in ms:
                    skip = min(n, k, m) < 1 or (identity == "conj53" and (k + m) % 3 == 2)
                    extra = {"spec": opts.get("--spec", "symbolic")} if identity == "main" else {}
                    add(skip, n=n, k=k, m=m, **extra)
            elif identity == "rpp":
                for m in ms:
                    add(m < 1 or n < 0 or k < 0, n=n, m=m, k=k,
                        mode=opts.get("--mode", "symbolic-VA"))
            elif identity in ("usmani", "alt-cf", "special-dets", "vv-inv"):
                add(identity == "vv-inv" and k % 3 == 1, k=k)
            else:
                raise ValueError(f"no expected statuses for identity {identity!r}")
    return rows
