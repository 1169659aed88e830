"""Dense matrices over the exact polynomial ring or its fraction field.

Determinants of polynomial matrices use fraction-free Bareiss
elimination (with row pivoting on symbolic zeros), or cofactor expansion
for small matrices of large polynomials; matrices of rational functions
use cofactor expansion.  The adjugate stays in the polynomial ring
(A adj(A) = det(A) I); ``matrix_inverse`` materializes adj(A) / det(A) as
reduced RatFunc entries for the minor-identity check.  The moment engine
uses neither: its transfer matrix is tridiagonal, and
``moments.usmani_inverse`` gives its adjugate and determinant from the
continuants.
Every moment-grid determinant of the reciprocity identities is a Hankel
determinant det(c_{i+j}), built by ``hankel_determinant`` from the 2m-1
entries of its sequence: each entry is computed once, and a condensation
of Hankel families has one place to go.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, List, Sequence, Union

from .poly import MultiPoly, poly_div_exact
from .ratfunc import RatFunc

Entry = Union[MultiPoly, RatFunc, int, Fraction]


class SingularMatrixError(ArithmeticError):
    def __init__(self, message: str, determinant=None):
        super().__init__(message)
        self.determinant = determinant


def _as_entry(e: Entry):
    if isinstance(e, (MultiPoly, RatFunc)):
        return e
    return MultiPoly.const(e)


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
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.data[i][0] * other.data[0][j]
                for t in range(1, self.cols):
                    acc = acc + self.data[i][t] * other.data[t][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def map(self, fn: Callable) -> "Matrix":
        return Matrix([[fn(e) for e in row] for row in self.data])

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "Matrix":
        rows = sorted(rows)
        cols = sorted(cols)
        return Matrix([[self.data[i][j] for j in cols] for i in rows])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.data)
        return f"Matrix({body})"


def determinant(m: Matrix) -> MultiPoly:
    """Exact determinant.

    Polynomial entries use fraction-free Bareiss elimination, except that
    2-4 row matrices with an entry of more than 64 terms use cofactor
    expansion, which avoids Bareiss' exact divisions of large
    polynomials; packed monomials keep its products cheap.  Matrices with
    rational-function entries use cofactor expansion.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return MultiPoly.const(1)
    if any(isinstance(e, RatFunc) for row in m.data for e in row):
        return _det_cofactor(m.data, RatFunc(0))
    if 2 <= n <= 4 and max(len(e) for row in m.data for e in row) > 64:
        return _det_cofactor(m.data, MultiPoly.zero())
    return _det_bareiss([list(row) for row in m.data])


def hankel_determinant(c: Sequence[Entry]) -> Entry:
    """det(c[i+j]) for i, j < m, given the 2m-1 entries c_0..c_{2m-2}; the
    empty list gives 1, and a non-empty even-length list raises ValueError."""
    if c and len(c) % 2 == 0:
        raise ValueError(f"a Hankel grid needs an odd number of entries, got {len(c)}")
    m = (len(c) + 1) // 2
    return determinant(Matrix([[c[i + j] for j in range(m)] for i in range(m)]))


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


def _det_cofactor(rows: Sequence[Sequence], zero):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, e in enumerate(rows[0]):
        if e.is_zero():
            continue
        term = e * _det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]], zero)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return zero if acc is None else acc


def minor(m: Matrix, rows: Iterable[int], cols: Iterable[int]) -> MultiPoly:
    """Minor [m]_{rows, cols}; empty index sets give 1 by convention."""
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    if len(rows) != len(cols):
        raise ValueError("minor needs index sets of equal cardinality")
    if rows and (rows[-1] >= m.rows or rows[0] < 0):
        raise IndexError("row index out of range")
    if cols and (cols[-1] >= m.cols or cols[0] < 0):
        raise IndexError("column index out of range")
    return determinant(m.submatrix(rows, cols))


def adjugate(m: Matrix) -> Matrix:
    """Transposed cofactor matrix; m * adjugate(m) = det(m) * I."""
    if not m.is_square():
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    if n == 0:
        return m
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = m.submatrix([r for r in range(n) if r != j],
                              [c for c in range(n) if c != i])
            cof = determinant(sub)
            if (i + j) % 2:
                cof = -cof
            out[i][j] = cof
    return Matrix(out)


def matrix_inverse(m: Matrix) -> Matrix:
    """Exact inverse with RatFunc entries; singular input raises with det."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    det = determinant(m)
    if det.is_zero():
        raise SingularMatrixError("matrix is singular", determinant=det)
    if isinstance(det, RatFunc):
        adj = adjugate(m)
        inv_det = RatFunc(1) / det
        return adj.map(lambda e: e * inv_det)
    adj = adjugate(m)
    return adj.map(lambda e: RatFunc(e, det))

