"""Determinants over the polynomial ring, and the adjugate as a test-side
oracle for the continuant inverse."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmom import poly as P
from negmom import weights as W
from negmom.matrix import Matrix, determinant, hankel_determinant, reduced_hankel_determinant
from negmom.moments import transfer_matrix, usmani_inverse
from negmom.poly import MultiPoly

ONE = MultiPoly.const(1)


def _sub(m, rows, cols):
    """det of the submatrix on the given rows and columns; 1 when empty."""
    return determinant(Matrix([[m[i, j] for j in cols] for i in rows]))


def adjugate(m):
    """Transposed cofactor matrix: m * adjugate(m) = det(m) * I."""
    n = m.rows
    return Matrix([[(-1) ** (i + j) * _sub(m, [r for r in range(n) if r != j],
                                           [c for c in range(n) if c != i])
                    for j in range(n)] for i in range(n)])


def rand_matrix(rng, n):
    return Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(n)])


def test_det_1x1_and_empty():
    assert determinant(Matrix([[P.b(0)]])) == P.b(0)
    assert determinant(Matrix([])) == ONE


def test_det_all_ones_tridiagonal():
    # frozen values: 2x2 gives 0, 3x3 gives -1
    A2 = Matrix([[ONE, ONE], [ONE, ONE]])
    assert determinant(A2).is_zero()
    A3 = Matrix([[ONE, ONE, 0], [ONE, ONE, ONE], [0, ONE, ONE]])
    assert determinant(A3).as_fraction() == -1


def test_det_transpose_and_equal_rows():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(10):
            M = rand_matrix(rng, n)
            assert determinant(M) == determinant(Matrix(list(zip(*M.data))))
            rows = [list(r) for r in M.data]
            rows[-1] = rows[0]
            assert determinant(Matrix(rows)).is_zero()


def test_det_multilinear():
    rng = random.Random(13)
    for _ in range(10):
        M = rand_matrix(rng, 3)
        scaled = Matrix([[Fraction(3) * e.as_fraction() for e in M.data[0]],
                         list(M.data[1]), list(M.data[2])])
        assert determinant(scaled) == 3 * determinant(M)


def test_det_symbolic_vs_cofactor():
    A = Matrix([[P.b(0), ONE, 0],
                [P.lam(1), P.b(1), ONE],
                [0, P.lam(2), P.b(2)]])
    d = determinant(A)
    by_hand = P.b(0) * (P.b(1) * P.b(2) - P.lam(2)) - P.lam(1) * P.b(2)
    assert d == by_hand


def test_inverse_2x2_adjugate():
    # A^{-1} = adj(A) / det(A) for the 2x2 transfer matrix, from the continuants
    N, det = usmani_inverse(1, W.symbolic())
    assert det == P.b(0) * P.b(1) - P.lam(1)
    assert N == Matrix([[P.b(1), -ONE], [-P.lam(1), P.b(0)]])


def test_inverse_roundtrip_random():
    # M adj(M) = det(M) I: the inverse adj(M) / det(M), cleared of det(M)
    rng = random.Random(17)
    for n in (2, 3, 4):
        M = rand_matrix(rng, n)
        while determinant(M).is_zero():
            M = rand_matrix(rng, n)
        det = determinant(M)
        assert M * adjugate(M) == Matrix([[det if i == j else 0 for j in range(n)]
                                          for i in range(n)])


def test_adjugate_relation():
    rng = random.Random(23)
    M = rand_matrix(rng, 3)
    adj = adjugate(M)
    det = determinant(M)
    prod = M * adj
    for i in range(3):
        for j in range(3):
            assert prod[i, j] == (det if i == j else MultiPoly.zero())


def test_inverse_minor_identity():
    """Jacobi's theorem cleared of det A: for |I| = |J| and complements I', J',
    det A * det(adj(A)[I, J]) = (-1)^(sum I + sum J) det(A)^|I| det A[J', I'],
    on a seeded random rational matrix and the symbolic transfer matrix."""
    rng = random.Random(5)
    while True:
        M = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
                    for _ in range(3)])
        if not determinant(M).is_zero():
            break
    for A in (M, transfer_matrix(2, W.symbolic())):
        det, adj, full = determinant(A), adjugate(A), range(A.rows)
        for t in range(A.rows + 1):
            for I in itertools.combinations(full, t):
                for J in itertools.combinations(full, t):
                    Ic = [i for i in full if i not in I]
                    Jc = [j for j in full if j not in J]
                    lhs = det * _sub(adj, I, J)
                    rhs = (-1) ** (sum(I) + sum(J)) * det ** t * _sub(A, Jc, Ic)
                    assert lhs == rhs, (I, J)


_SMALL = st.integers(-4, 4)
# int, Fraction and symbolic MultiPoly entries: c * b_i^e
_HANKEL_ENTRY = st.one_of(
    _SMALL,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.builds(lambda c, i, e: c * P.b(i) ** e, _SMALL, st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(m=st.integers(1, 4), data=st.data())
def test_hankel_determinant_matches_the_full_grid(m, data):
    c = data.draw(st.lists(_HANKEL_ENTRY, min_size=2 * m - 1, max_size=2 * m - 1), label="c")
    grid = Matrix([[c[i + j] for j in range(m)] for i in range(m)])
    assert hankel_determinant(c) == determinant(grid)


def test_hankel_determinant_edges():
    assert hankel_determinant([]) == ONE   # the empty grid
    assert hankel_determinant([P.b(0)]) == P.b(0)
    assert hankel_determinant([1, 2, 5]) == MultiPoly.const(1)   # 1*5 - 2*2
    for even in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="odd number"):
            hankel_determinant(even)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 3), data=st.data())
def test_reduced_hankel_determinant_divides_out_the_power_of_d(m, n, data):
    # c_t = d^t e_t puts d^((l-1)(N+l-2)) in every l x l minor from c_N on,
    # so every condensation division is exact and only a zero pivot stops it
    d = data.draw(st.sampled_from([MultiPoly.const(2), P.b(3), P.b(3) - 2 * P.lam(1)]), label="d")
    e = data.draw(st.lists(_HANKEL_ENTRY, min_size=2 * m - 1, max_size=2 * m - 1), label="e")
    c = [d ** (n + t) * e_t for t, e_t in enumerate(e)]
    reduced = reduced_hankel_determinant(c, d, n)
    assert reduced is None or reduced * d ** ((m - 1) * (n + m - 2)) == hankel_determinant(c)


def test_reduced_hankel_determinant_edges():
    assert reduced_hankel_determinant([], P.b(0), 1) == ONE
    assert reduced_hankel_determinant([P.b(1)], P.b(0), 1) == P.b(1)
    with pytest.raises(ValueError, match="odd number"):
        reduced_hankel_determinant([1, 2], P.b(0), 1)
    # generic entries: every level divides, and R d^j is the determinant, j = 2 * 3
    d = P.b(0) + P.lam(1)
    c = [d ** (2 + t) * P.b(t + 1) for t in range(5)]
    reduced = reduced_hankel_determinant(c, d, 2)
    assert reduced is not None and reduced * d ** 6 == hankel_determinant(c)
    # a zero level-3 pivot R_1^(n+2) = c_{n+2}, here with a zero determinant
    assert reduced_hankel_determinant([1, 0, 0, 0, 1], 1, 1) is None
    assert hankel_determinant([1, 0, 0, 0, 1]).is_zero()
    # an inexact level-2 division: d^n does not divide c_n c_{n+2} - c_{n+1}^2
    # (d is no monomial: those are units of the Laurent ring)
    assert reduced_hankel_determinant([P.b(0), P.b(1), P.b(2)], P.b(3) + 1, 1) is None
