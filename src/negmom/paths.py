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

Each family's rule is stated in one function that its search consults:
``steps_from`` for Motzkin paths, ``moves_from`` for Schroeder paths,
``_pv_ok`` for peak-valley sequences (the tests' membership oracle as
well), and the ``options`` of the alternating sequences and of the plane
partitions.

Weights have one representation.  An object's weight is a list of
``(family, index)`` factors, one per weighted step, entry or cell, from
the family's ``*_factors`` function; ``weight_sum`` is the only place
factors become a ``MultiPoly``.  By default a factor ``(f, i)`` is the
variable ``f_i``; a caller that weights by a ``WeightSpec`` passes a
``value`` reading ``spec.b``/``spec.lam`` (or ``.a``) at the index.

Canonical encodings: Motzkin paths as "UHD..." strings, Schroeder paths
as "U,H2,D" strings, integer sequences as "(a1,...,an)", reverse plane
partitions as row-major grids with a shape header.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .poly import MultiPoly, poly_sum

Steps = Tuple[str, ...]
Seq = Tuple[int, ...]
Factor = Tuple[str, int]                # (family, index): one factor of a weight

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


def _variable(factor: Factor) -> MultiPoly:
    return MultiPoly.variable(*factor)


def weight_sum(objects: Iterable, factors: Callable[..., Iterable],
               value: Callable[..., MultiPoly] = _variable) -> MultiPoly:
    """The sum over ``objects`` of the product of ``value(f)`` over each
    object's ``factors(obj)``; an object without factors weighs 1.

    Objects are counted by their sorted factor tuple, so each distinct
    multiset is multiplied out once, times its count, with ``value``
    called once per distinct factor; the products are added into one term
    dict.  Holds one object at a time."""
    counts: Dict[tuple, int] = {}
    get = counts.get
    for obj in objects:
        key = tuple(sorted(factors(obj)))
        counts[key] = get(key, 0) + 1
    values: Dict = {}

    def product(key: tuple, times: int) -> MultiPoly:
        w = MultiPoly.const(times)
        for f, run in groupby(key):
            if f not in values:
                values[f] = value(f)
            w = w * values[f] ** sum(1 for _ in run)
        return w

    return poly_sum(product(key, times) for key, times in counts.items())


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


def motzkin_factors(steps: Steps, r: int = 0) -> List[Factor]:
    """(b, i) per H-step at height i and (lam, i) per D-step from height i."""
    out = []
    h = r
    for st in steps:
        if st == "H":
            out.append(("b", h))
        elif st == "U":
            h += 1
        else:
            out.append(("lam", h))
            h -= 1
    return out


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


def schroeder_factors(steps: Steps) -> List[Factor]:
    """(b, i) per H2-step at height i and (a, i) per D-step from height i."""
    out = []
    h = 0
    for st in steps:
        if st == "H2":
            out.append(("b", h))
        elif st == "U":
            h += 1
        else:
            out.append(("a", h))
            h -= 1
    return out


def encode_schroeder(steps: Steps) -> str:
    return ",".join(steps)


# -- peak-valley sequences ------------------------------------------------------

def _pv_ok(ell: int, modified: bool, prev: Optional[int], cur: int,
           nxt: Optional[int]) -> bool:
    """The peak-valley rule at an entry cur between its neighbours, an
    absent (None) neighbour passing: cur = 0 mod ell (1 mod 3 in the
    modified variant) is a valley, below both neighbours; cur = ell - 1
    mod ell (2 mod 3 modified) is a peak, above both; other entries are
    free.  The rule tests each neighbour on its own."""
    res = cur % ell
    if res == (1 if modified else 0):
        return (prev is None or prev > cur) and (nxt is None or cur < nxt)
    if res == (2 if modified else ell - 1):
        return (prev is None or prev < cur) and (nxt is None or cur > nxt)
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
    ok = partial(_pv_ok, ell, modified)

    if n == 0:
        if not boundary or (ok(None, r0, s0) and ok(r0, s0, None)):
            yield ()
        return

    @lru_cache(maxsize=None)
    def successors(cur: Optional[int], last: bool) -> List[int]:
        # the entries v after cur (None: before the first entry of the plain
        # family, where r0 is padding) with the rule at cur holding towards
        # v; at the last position, the rule at v and (pinned) at s0 as well
        prev = r0 if cur is None else cur
        return [v for v in range(k + 1)
                if (cur is None or ok(None, cur, v))
                and (not last or (ok(prev, v, s0) and (not boundary or ok(v, s0, None))))]

    def options(i: int, word: List[int]) -> List[int]:
        # the rule at the entry before position i, towards its own predecessor
        if i >= 1 and not ok(word[i - 2] if i >= 2 else r0, word[i - 1], None):
            return []
        return successors(word[i - 1] if i else (r0 if boundary else None), i == n - 1)

    yield from _words(n, options)


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


# -- sequence weights ---------------------------------------------------------------

def seq_v_factors(seq: Seq) -> List[Factor]:
    """(V, a_i) for every entry."""
    return [("V", v) for v in seq]


def seq_av_factors(seq: Seq) -> List[Factor]:
    """(V, a_i) on odd positions, (A, a_i) on even ones; length must be odd."""
    if len(seq) % 2 == 0:
        raise ValueError("alternating V/A weight needs odd length")
    return [("A" if pos % 2 else "V", v) for pos, v in enumerate(seq)]


def encode_seq(seq: Seq) -> str:
    return "(" + ",".join(str(v) for v in seq) + ")"


# -- reverse plane partitions -------------------------------------------------------

def staircase_skew_cells(n: int, m: int) -> List[Tuple[int, int]]:
    """Cells (row, col), 1-based, of the skew staircase shape.

    Row i of the outer staircase has length n+2m-i (i = 1..n+2m); the
    inner staircase removes max(n-i, 0) leading cells.
    """
    if n < 0 or m < 0:
        raise ValueError("n, m must be nonnegative")
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
    cells = staircase_skew_cells(n, m)
    if max_total is not None and max_total < 0:
        return                          # not even the empty shape's filling
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


def rpp_factors(filling: Dict[Tuple[int, int], int], n: int) -> List[Factor]:
    """Per cell (A or V by the parity of d = i+j-n, index entry + floor((d+1)/2))."""
    return [("A" if (i + j - n) % 2 else "V", v + (i + j - n + 1) // 2)
            for (i, j), v in filling.items()]


def encode_rpp(filling: Dict[Tuple[int, int], int], n: int, m: int) -> str:
    cells = staircase_skew_cells(n, m)
    byrow: Dict[int, List[str]] = {}
    for (i, j) in cells:
        byrow.setdefault(i, []).append(str(filling[(i, j)]))
    rows = [" ".join(byrow[i]) for i in sorted(byrow)]
    return f"shape staircase({n}+2*{m})/staircase({n}); " + " | ".join(rows)
