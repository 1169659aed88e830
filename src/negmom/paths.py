"""Brute-force enumerators for the combinatorial families and their weights.

Everything here is deliberately naive: an exhaustive depth-first search
with just enough pruning to finish. These enumerators are the ground truth
that the closed-form machinery is tested against, so they must stay
independent of it (no transfer matrices, no generating functions, no
counting recurrences): every object is visited.

The enumerators are lazy: each is a generator that yields its objects one
at a time, in a fixed order, building each object once, at its leaf of the
search.  Counting or summing over a family therefore holds one object at a
time; a caller that needs the objects twice wraps the result in ``list()``.

Canonical encodings: Motzkin paths as "UHD..." strings, Schroeder paths
as "U,H2,D" strings, integer sequences as "(a1,...,an)", reverse plane
partitions as row-major grids with a shape header.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .poly import MultiPoly

Steps = Tuple[str, ...]
Seq = Tuple[int, ...]

_END = object()                         # end-of-iterator sentinel for next()


def _words(n: int, options: Callable[[int, List], Iterable], leaf=tuple) -> Iterator:
    """Depth first, in order: ``leaf(w)`` for every word w of length n with
    w[i] in ``options(i, w)``, which sees w[:i] filled in.  ``options`` is
    called once per prefix, in depth-first order, so it may keep per-depth
    state.  One explicit stack of iterators stands in for a recursion (or a
    chain of generators) per position, and the last position, where most
    words end, runs as a flat loop."""
    word: List = [None] * n
    if n == 0:
        yield leaf(word)
        return
    last = n - 1
    stack: List[Iterator] = []          # stack[i] iterates the letters of position i
    while True:
        if len(stack) == last:
            for v in options(last, word):
                word[last] = v
                yield leaf(word)
        else:
            stack.append(iter(options(len(stack), word)))
        while stack:                    # next letter at the deepest open position
            v = next(stack[-1], _END)
            if v is not _END:
                word[len(stack) - 1] = v
                break
            stack.pop()
        else:
            return


def count(objects: Iterable) -> int:
    """The number of objects an enumerator yields, holding one at a time."""
    return sum(1 for _ in objects)


# -- Motzkin paths ------------------------------------------------------------

_MOVES = (("U", 1), ("H", 0), ("D", -1))
_DH = dict(_MOVES)


def motzkin_paths(n: int, r: int = 0, s: int = 0,
                  k: Optional[int] = None) -> Iterator[Steps]:
    """All Motzkin paths of length n from height r to height s, height <= k."""
    if n < 0 or r < 0 or s < 0:
        raise ValueError("n, r, s must be nonnegative")
    if k is not None and (r > k or s > k):
        return
    heights = [r] * n                   # heights[i]: the height before step i

    @lru_cache(maxsize=None)
    def steps_from(i: int, h: int) -> List[str]:
        left = n - i - 1                # steps after this one
        return [step for step, dh in _MOVES
                if 0 <= h + dh and (k is None or h + dh <= k) and abs(h + dh - s) <= left]

    def options(i: int, word: List[str]) -> List[str]:
        if i:
            heights[i] = heights[i - 1] + _DH[word[i - 1]]
        return steps_from(i, heights[i])

    if n or r == s:
        yield from _words(n, options)


def motzkin_heights(steps: Steps, r: int = 0) -> List[int]:
    hs = [r]
    for st in steps:
        hs.append(hs[-1] + _DH[st])
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

def schroeder_paths(n: int, k: Optional[int] = None) -> Iterator[Steps]:
    """Schroeder paths (steps U, H2, D; H2 spans 2 in x) from (0,0) to (n,0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    top = n // 2 if k is None else min(k, n // 2)
    if top < 0:             # a bound k < 0 excludes the start at height 0
        return
    if n == 0:
        yield ()
        return

    def moves_from(h: int, left: int) -> List[Tuple[str, int, int]]:
        # (step, height, x left) after each step that can still return to 0
        out = []
        if h < top and h < left - 1:
            out.append(("U", h + 1, left - 1))
        if h <= left - 2:
            out.append(("H2", h, left - 2))
        if h > 0:
            out.append(("D", h - 1, left - 1))
        return out

    moves = [[moves_from(h, left) for left in range(n + 1)] for h in range(top + 1)]
    steps: List[str] = []
    stack = [iter(moves[0][n])]         # stack[i] iterates the moves of step i
    while stack:
        move = next(stack[-1], _END)
        if move is _END:
            stack.pop()
            if steps:
                steps.pop()
            continue
        step, h, left = move
        steps.append(step)
        if left == 0:
            yield tuple(steps)
            steps.pop()
        else:
            stack.append(iter(moves[h][left]))


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
                 r: Optional[int] = None, s: Optional[int] = None) -> Iterator[Seq]:
    """Peak-valley sequences of length n with entries in [0, k].

    With r and s omitted this is the plain family: the rule is imposed at
    interior positions only, against zero padding, and the length-0 set
    is {()}.  With r, s given, the rule is imposed at the padded boundary
    values as well (through the neighbors that exist), which makes the
    length-0 set depend on (r, s).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ell not in (2, 3):
        raise ValueError("ell must be 2 or 3")
    if modified and ell != 3:
        raise ValueError("modified variant needs ell = 3")
    boundary = not (r is None and s is None)
    r0 = 0 if r is None else r
    s0 = 0 if s is None else s

    if n == 0:
        if not boundary or (_pv_ok(ell, modified, None, r0, s0)
                            and _pv_ok(ell, modified, r0, s0, None)):
            yield ()
        return

    valley, peak = _pv_rules(ell, modified)
    entries = range(0, k + 1)

    def after(left: Optional[int], cur: int):
        """The entries v for which the rule at cur holds between left and v."""
        res = cur % ell
        if res == valley:
            return range(max(cur + 1, 0), k + 1) if left is None or left > cur else ()
        if res == peak:
            return range(0, min(cur, k + 1)) if left is None or left < cur else ()
        return entries

    def closes(left: int, v: int) -> bool:
        """The rule at a last entry v between left and s0, and (with r, s
        given) the rule at s0 after v."""
        res = v % ell
        if res == valley and not (left > v < s0):
            return False
        if res == peak and not (left < v > s0):
            return False
        if boundary:
            res = s0 % ell
            return not ((res == valley and v <= s0) or (res == peak and v >= s0))
        return True

    @lru_cache(maxsize=None)
    def last_entries(left: int) -> List[int]:
        return [v for v in entries if closes(left, v)]

    def options(i: int, word: List[int]):
        if i == 0:
            cands = after(None, r0) if boundary else entries
        else:
            cands = after(word[i - 2] if i >= 2 else r0, word[i - 1])
        if i < n - 1:
            return cands
        return [v for v in last_entries(word[i - 1] if i else r0) if v in cands]

    yield from _words(n, options)


def is_pv_sequence(seq: Seq, ell: int, k: int, modified: bool = False) -> bool:
    if any(v < 0 or v > k for v in seq):
        return False
    padded = (0,) + tuple(seq) + (0,)
    return all(_pv_ok(ell, modified, padded[i - 1], padded[i], padded[i + 1])
               for i in range(1, len(padded) - 1))


# -- alternating sequences --------------------------------------------------------

def alt_sequences(n: int, k: int, down_first: bool = False,
                  endpoints: Optional[Tuple[int, int]] = None) -> Iterator[Seq]:
    """Alternating sequences of length n over {1..k}.

    Up-first is a1 <= a2 >= a3 <= ...; down-first reverses the pattern.
    With endpoints (r, s) the first and last entries are pinned (length 1
    needs r == s, otherwise the family is empty).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if endpoints is not None:
        r, s = endpoints
        if not (1 <= r <= k and 1 <= s <= k):
            raise ValueError("endpoints must lie in [1, k]")
    if n == 0:
        if endpoints is None:
            yield ()
        return
    first = range(1, k + 1) if endpoints is None else (r,)

    def options(i: int, word: List[int]):
        if i == 0:
            cands = first
        elif (i % 2 == 1) != down_first:     # a_i >= a_{i-1}
            cands = range(word[i - 1], k + 1)
        else:                               # a_i <= a_{i-1}
            cands = range(1, word[i - 1] + 1)
        if endpoints is not None and i == n - 1:
            return (s,) if s in cands else ()
        return cands

    yield from _words(n, options)


@lru_cache(maxsize=None)
def count_alt(n: int, k: int, down_first: bool = False) -> int:
    return count(alt_sequences(n, k, down_first))


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
                 max_total: Optional[int] = None) -> Iterator[Dict[Tuple[int, int], int]]:
    """Reverse plane partitions on the skew staircase, entries in [0, k].

    ``max_total`` keeps only fillings with entry sum <= max_total (and
    prunes the search accordingly).
    """
    if max_total is not None and max_total < 0:
        return                          # not even the empty shape's filling
    cells = staircase_skew_cells(n, m)
    index = {cell: t for t, cell in enumerate(cells)}
    # the filled neighbours (left, above) whose entries bound each cell from below
    below = [[index[c] for c in ((i, j - 1), (i - 1, j)) if c in index] for i, j in cells]
    totals = [0] * len(cells)           # totals[t]: the entry sum of cells before t

    def options(t: int, word: List[int]) -> range:
        lo = 0
        for u in below[t]:
            lo = max(lo, word[u])
        if max_total is None:
            return range(lo, k + 1)
        if t:
            totals[t] = totals[t - 1] + word[t - 1]
        return range(lo, min(k, max_total - totals[t]) + 1)

    yield from _words(len(cells), options, lambda word: dict(zip(cells, word)))


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
