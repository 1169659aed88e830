"""Brute-force enumerators for the combinatorial families and their weights.

Everything here is deliberately naive: exhaustive recursion with just
enough pruning to finish. These enumerators are the ground truth that the
closed-form machinery is tested against, so they must stay independent of
it (no transfer matrices, no generating functions).

Canonical encodings: Motzkin paths as "UHD..." strings, Schroeder paths
as "U,H2,D" strings, integer sequences as "(a1,...,an)", reverse plane
partitions as row-major grids with a shape header.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .poly import MultiPoly

Steps = Tuple[str, ...]
Seq = Tuple[int, ...]


# -- Motzkin paths ------------------------------------------------------------

def motzkin_paths(n: int, r: int = 0, s: int = 0, k: Optional[int] = None) -> List[Steps]:
    """All Motzkin paths of length n from height r to height s, height <= k."""
    if n < 0 or r < 0 or s < 0:
        raise ValueError("n, r, s must be nonnegative")
    if k is not None and (r > k or s > k):
        return []
    out: List[Steps] = []

    def rec(h: int, left: int, acc: List[str]):
        if abs(h - s) > left:
            return
        if left == 0:
            out.append(tuple(acc))
            return
        for step, dh in (("U", 1), ("H", 0), ("D", -1)):
            nh = h + dh
            if nh < 0 or (k is not None and nh > k):
                continue
            acc.append(step)
            rec(nh, left - 1, acc)
            acc.pop()

    rec(r, n, [])
    return out


def motzkin_heights(steps: Steps, r: int = 0) -> List[int]:
    hs = [r]
    for st in steps:
        hs.append(hs[-1] + {"U": 1, "H": 0, "D": -1}[st])
    return hs

def wt_motzkin(steps: Steps, spec, r: int = 0) -> MultiPoly:
    """Product of b_i per H-step at height i and lam_i per D-step from height i."""
    w = MultiPoly.const(1)
    h = r
    for st in steps:
        if st == "H":
            w = w * spec.b(h)
        elif st == "U":
            h += 1
        else:
            w = w * spec.lam(h)
            h -= 1
    return w


def pwt_motzkin(steps: Steps, r: int = 0,
                b_fn: Optional[Callable[[int], MultiPoly]] = None) -> MultiPoly:
    """Point weight: product of b_j over every lattice point (i, j) of the path."""
    if b_fn is None:
        b_fn = lambda i: MultiPoly.variable("b", i)
    w = MultiPoly.const(1)
    for h in motzkin_heights(steps, r):
        w = w * b_fn(h)
    return w


def encode_motzkin(steps: Steps) -> str:
    return "".join(steps)


# -- Schroeder paths ----------------------------------------------------------

def schroeder_paths(n: int, k: Optional[int] = None) -> List[Steps]:
    """Schroeder paths (steps U, H2, D; H2 spans 2 in x) from (0,0) to (n,0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: List[Steps] = []

    def rec(h: int, left: int, acc: List[str]):
        if h > left:
            return
        if left == 0:
            if h == 0:
                out.append(tuple(acc))
            return
        if k is None or h + 1 <= k:
            acc.append("U")
            rec(h + 1, left - 1, acc)
            acc.pop()
        if left >= 2:
            acc.append("H2")
            rec(h, left - 2, acc)
            acc.pop()
        if h > 0:
            acc.append("D")
            rec(h - 1, left - 1, acc)
            acc.pop()

    rec(0, n, [])
    return out


def wt_schroeder(steps: Steps, b_fn, a_fn) -> MultiPoly:
    """Product of b_i per H2-step at height i and a_i per D-step from height i."""
    w = MultiPoly.const(1)
    h = 0
    for st in steps:
        if st == "H2":
            w = w * b_fn(h)
        elif st == "U":
            h += 1
        else:
            w = w * a_fn(h)
            h -= 1
    return w


def encode_schroeder(steps: Steps) -> str:
    return ",".join(steps)


# -- peak-valley sequences ------------------------------------------------------

def _pv_rules(ell: int, modified: bool) -> Tuple[int, int]:
    # residues (mod ell) forcing a valley / a peak
    if modified:
        if ell != 3:
            raise ValueError("modified variant is defined for ell = 3 only")
        return 1, 2
    return 0, (ell - 1)


def _pv_ok(ell: int, modified: bool, prev: Optional[int], cur: int,
           nxt: Optional[int]) -> bool:
    """Check the peak/valley rule at a position, ignoring absent neighbors."""
    valley_res, peak_res = _pv_rules(ell, modified)
    r = cur % ell
    if r == valley_res:
        if prev is not None and not prev > cur:
            return False
        if nxt is not None and not cur < nxt:
            return False
    elif r == peak_res:
        if prev is not None and not prev < cur:
            return False
        if nxt is not None and not cur > nxt:
            return False
    return True


def pv_sequences(ell: int, n: int, k: int, modified: bool = False,
                 r: Optional[int] = None, s: Optional[int] = None) -> List[Seq]:
    """Peak-valley sequences of length n with entries in [0, k].

    With r and s omitted this is the plain family: the rule is imposed at
    interior positions only, against zero padding, and the length-0 set
    is {()}.  With r, s given, the rule is imposed at the padded boundary
    values as well (through the neighbors that exist), which makes the
    length-0 set depend on (r, s).
    """
    if ell not in (2, 3):
        raise ValueError("ell must be 2 or 3")
    if modified and ell != 3:
        raise ValueError("modified variant needs ell = 3")
    boundary = not (r is None and s is None)
    r0 = 0 if r is None else r
    s0 = 0 if s is None else s

    if n == 0:
        if not boundary:
            return [()]
        return [()] if _pv_ok(ell, modified, None, r0, s0) and \
                       _pv_ok(ell, modified, r0, s0, None) else []

    out: List[Seq] = []

    def rec(i: int, acc: List[int]):
        # rule at position i-1 becomes checkable once a_i is placed
        if i == n:
            prev2 = acc[-2] if n >= 2 else r0
            if not _pv_ok(ell, modified, prev2, acc[-1], s0):
                return
            if boundary and not _pv_ok(ell, modified, acc[-1], s0, None):
                return
            out.append(tuple(acc))
            return
        for v in range(0, k + 1):
            if acc:
                prev2 = acc[-2] if len(acc) >= 2 else r0
                if not _pv_ok(ell, modified, prev2, acc[-1], v):
                    continue
            elif boundary and not _pv_ok(ell, modified, None, r0, v):
                continue
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    return out


def is_pv_sequence(seq: Seq, ell: int, k: int, modified: bool = False) -> bool:
    if any(v < 0 or v > k for v in seq):
        return False
    padded = (0,) + tuple(seq) + (0,)
    return all(_pv_ok(ell, modified, padded[i - 1], padded[i], padded[i + 1])
               for i in range(1, len(padded) - 1))


# -- alternating sequences --------------------------------------------------------

def alt_sequences(n: int, k: int, down_first: bool = False,
                  endpoints: Optional[Tuple[int, int]] = None) -> List[Seq]:
    """Alternating sequences of length n over {1..k}.

    Up-first is a1 <= a2 >= a3 <= ...; down-first reverses the pattern.
    With endpoints (r, s) the first and last entries are pinned (length 1
    needs r == s, otherwise the list is empty).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if endpoints is not None:
        r, s = endpoints
        if not (1 <= r <= k and 1 <= s <= k):
            raise ValueError("endpoints must lie in [1, k]")
    if n == 0:
        return [] if endpoints is not None else [()]
    out: List[Seq] = []
    first = [endpoints[0]] if endpoints else range(1, k + 1)

    def ok(i: int, prev: int, cur: int) -> bool:
        rising = (i % 2 == 1) != down_first  # position i follows <= when rising
        return prev <= cur if rising else prev >= cur

    def rec(i: int, acc: List[int]):
        if i == n:
            if endpoints is None or acc[-1] == endpoints[1]:
                out.append(tuple(acc))
            return
        for v in range(1, k + 1):
            if acc and not ok(i, acc[-1], v):
                continue
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    for f in first:
        rec(1, [f])
    return out


@lru_cache(maxsize=None)
def count_alt(n: int, k: int, down_first: bool = False) -> int:
    return len(alt_sequences(n, k, down_first))


# -- bijection between 2-PV and alternating sequences -----------------------------

def pv_to_alt(seq: Seq, k: int) -> Seq:
    """Entrywise a_i -> k - floor(a_i / 2) on odd-length 2-PV input."""
    if len(seq) % 2 == 0 or not is_pv_sequence(seq, 2, 2 * k - 1):
        raise ValueError("input is not an odd-length 2-PV sequence with bound 2k-1")
    return tuple(k - v // 2 for v in seq)


def alt_to_pv(seq: Seq, k: int) -> Seq:
    """Inverse map: odd positions to 2(k-a)+1, even positions to 2(k-a)."""
    if len(seq) % 2 == 0:
        raise ValueError("length must be odd")
    out = []
    for pos, v in enumerate(seq, start=1):
        out.append(2 * (k - v) + 1 if pos % 2 == 1 else 2 * (k - v))
    return tuple(out)


# -- sequence weights ---------------------------------------------------------------

def wt_seq_v(seq: Seq) -> MultiPoly:
    """Product of V_{a_i} over all entries."""
    w = MultiPoly.const(1)
    for v in seq:
        w = w * MultiPoly.variable("V", v)
    return w


def wt_seq_av(seq: Seq) -> MultiPoly:
    """V on odd positions, A on even positions; length must be odd."""
    if len(seq) % 2 == 0:
        raise ValueError("alternating V/A weight needs odd length")
    w = MultiPoly.const(1)
    for pos, v in enumerate(seq, start=1):
        fam = "V" if pos % 2 == 1 else "A"
        w = w * MultiPoly.variable(fam, v)
    return w


def encode_seq(seq: Seq) -> str:
    return "(" + ",".join(str(v) for v in seq) + ")"


# -- reverse plane partitions -------------------------------------------------------

def staircase_skew_cells(n: int, m: int) -> List[Tuple[int, int]]:
    """Cells (row, col), 1-based, of the skew staircase shape.

    Row i of the outer staircase has length n+2m-i (i = 1..n+2m); the
    inner staircase removes max(n-i, 0) leading cells.
    """
    cells = []
    p = n + 2 * m
    for i in range(1, p + 1):
        outer = p - i
        inner = max(n - i, 0)
        for j in range(inner + 1, outer + 1):
            cells.append((i, j))
    return cells


def rpp_fillings(n: int, m: int, k: int,
                 max_total: Optional[int] = None) -> List[Dict[Tuple[int, int], int]]:
    """Reverse plane partitions on the skew staircase, entries in [0, k].

    ``max_total`` keeps only fillings with entry sum <= max_total (and
    prunes the search accordingly).
    """
    cells = staircase_skew_cells(n, m)
    out: List[Dict[Tuple[int, int], int]] = []
    filling: Dict[Tuple[int, int], int] = {}

    def rec(idx: int, total: int):
        if idx == len(cells):
            out.append(dict(filling))
            return
        i, j = cells[idx]
        lo = 0
        left = filling.get((i, j - 1))
        if left is not None:
            lo = max(lo, left)
        up = filling.get((i - 1, j))
        if up is not None:
            lo = max(lo, up)
        for v in range(lo, k + 1):
            if max_total is not None and total + v > max_total:
                break
            filling[(i, j)] = v
            rec(idx + 1, total + v)
            del filling[(i, j)]

    rec(0, 0)
    return out


def rpp_total(filling: Dict[Tuple[int, int], int]) -> int:
    return sum(filling.values())


def wt_rpp(filling: Dict[Tuple[int, int], int], n: int) -> MultiPoly:
    """Cell weight A or V (by parity of i+j-n) at index T(i,j)+floor((i+j-n+1)/2)."""
    w = MultiPoly.const(1)
    for (i, j), v in sorted(filling.items()):
        d = i + j - n
        idx = v + (d + 1) // 2
        fam = "A" if d % 2 == 1 else "V"
        w = w * MultiPoly.variable(fam, idx)
    return w


def rpp_transpose(filling: Dict[Tuple[int, int], int]) -> Dict[Tuple[int, int], int]:
    return {(j, i): v for (i, j), v in filling.items()}


def encode_rpp(filling: Dict[Tuple[int, int], int], n: int, m: int) -> str:
    cells = staircase_skew_cells(n, m)
    byrow: Dict[int, List[str]] = {}
    for (i, j) in cells:
        byrow.setdefault(i, []).append(str(filling[(i, j)]))
    rows = [" ".join(byrow[i]) for i in sorted(byrow)]
    return f"shape staircase({n}+2*{m})/staircase({n}); " + " | ".join(rows)
