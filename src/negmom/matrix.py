"""Dense matrices over the exact polynomial ring.

Entries are ``MultiPoly`` (ints and Fractions become constants); a
rational-function entry is a ``TypeError``, since every quotient of the
program is divided out once, outside any matrix.  Determinants use
fraction-free Bareiss elimination (with row pivoting on symbolic zeros),
or cofactor expansion for small matrices of large polynomials.  The
moment engine's transfer matrix A is tridiagonal, so adj(A) is
semiseparable: ``moments`` steps rows through it from the continuants in
O(k) products, with no matrix built (``usmani_inverse`` writes it out).
Every moment-grid determinant of the reciprocity identities is a Hankel
determinant det(c_{i+j}), built by ``hankel_determinant`` from the 2m-1
entries of its sequence: each entry is computed once.  A backward grid
stepped with adj A carries a known power of d = det A in each of its
leading minors; ``reduced_hankel_determinant`` condenses such a grid
(Desnanot-Jacobi) with that power divided out at every level.  A plain
grid is not condensed: dividing by raw entries makes its terms swell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .poly import ExactDivisionError, MultiPoly, poly_div_exact, poly_dot

Entry = Union[MultiPoly, int, Fraction]


def _as_entry(e: Entry) -> MultiPoly:
    if isinstance(e, MultiPoly):
        return e
    if isinstance(e, (int, Fraction)):
        return MultiPoly.const(e)
    raise TypeError(f"matrix entries are polynomials, not {type(e).__name__}")


class Matrix:
    """Rectangular grid of ring elements; rows are tuples, never mutated."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Entry]]):
        self.data = [tuple(_as_entry(e) for e in row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[MultiPoly.const(1) if i == j else MultiPoly.zero()
                     for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(self.data[i][j] == other.data[i][j]
                   for i in range(self.rows) for j in range(self.cols))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.data))
        return Matrix([[poly_dot(zip(row, col)) for col in cols] for row in self.data])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.data)
        return f"Matrix({body})"


def determinant(m: Matrix) -> MultiPoly:
    """Exact determinant.

    Fraction-free Bareiss elimination, except that 2-4 row matrices with
    an entry of more than 64 terms use cofactor expansion, which avoids
    Bareiss' exact divisions of large polynomials; packed monomials keep
    its products cheap.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return MultiPoly.const(1)
    if 2 <= n <= 4 and max(len(e) for row in m.data for e in row) > 64:
        return _det_cofactor(m.data)
    return _det_bareiss([list(row) for row in m.data])


def hankel_determinant(c: Sequence[Entry]) -> MultiPoly:
    """det(c[i+j]) for i, j < m, given the 2m-1 entries c_0..c_{2m-2}; the
    empty list gives 1, and a non-empty even-length list raises ValueError."""
    if c and len(c) % 2 == 0:
        raise ValueError(f"a Hankel grid needs an odd number of entries, got {len(c)}")
    m = (len(c) + 1) // 2
    return determinant(Matrix([[c[i + j] for j in range(m)] for i in range(m)]))


def reduced_hankel_determinant(c: Sequence[Entry], d: Entry, n: int) -> Optional[MultiPoly]:
    """det(c_{n+i+j}) / d^((m-1)(n+m-2)) for i, j < m, given the 2m-1
    entries c_n..c_{n+2m-2} as ``c``, by Desnanot-Jacobi condensation.

    The reduced minors R_l^(N) = det(c_{N+i+j})_{l x l} / d^((l-1)(N+l-2))
    are built level by level: R_1 = c, R_2^(N) = (c_N c_{N+2} - c_{N+1}^2)
    / d^N, and for l >= 3

        R_l^(N) = (R_{l-1}^(N) R_{l-1}^(N+2) - (R_{l-1}^(N+1))^2) / R_{l-2}^(N+2),

    where the powers of d cancel exactly.  Every division is exact when d's
    power divides each minor, as it does for c_t = d^t mu_{-t}.  None when
    a pivot R_{l-2}^(N+2) is zero or a division is inexact: the caller then
    takes ``hankel_determinant``.
    """
    if c and len(c) % 2 == 0:
        raise ValueError(f"a Hankel grid needs an odd number of entries, got {len(c)}")
    if len(c) <= 1:
        return hankel_determinant(c)
    d = _as_entry(d)
    cur = [_as_entry(e) for e in c]
    pivots = [d ** n]   # d^N, N = n, n+1, ...: the level-2 divisors
    for _ in range(len(c) - 3):
        pivots.append(pivots[-1] * d)
    try:
        while len(cur) > 1:
            cur, pivots = [poly_div_exact(cur[i] * cur[i + 2] - cur[i + 1] * cur[i + 1],
                                          pivots[i])
                           for i in range(len(cur) - 2)], cur[2:]
    except (ExactDivisionError, ZeroDivisionError):
        return None
    return cur[0]


def _det_bareiss(a: List[List[MultiPoly]]) -> MultiPoly:
    n = len(a)
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = poly_div_exact(num, prev)
            a[i][k] = MultiPoly.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def _det_cofactor(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, e in enumerate(rows[0]):
        if e.is_zero():
            continue
        term = e * _det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return MultiPoly.zero() if acc is None else acc
