"""Closed-form bounded and negative moments of orthogonal polynomials.

The forward side is the transfer-matrix picture: the (r, s) entry of the
n-th power of the tridiagonal matrix

    A(k; b, lam) = tridiag(lam_1..lam_k; b_0..b_k; 1..1)

is the weighted count of height-bounded Motzkin paths from height r to
height s.  The backward side extends that sequence along its linear
recurrence, by the paper's two routes: reversing the generating function
(``negative_moments``), and stepping the inverse A^{-1} = adj(A) / det A
(``adjugate_vectors``).  A has one inverse here, ``usmani_inverse``: the
leading and trailing continuants give adj(A) and det A, and the same
continuant loop gives ``well_defined``'s P_{k+1}(0) = (-1)^{k+1} det A.
Stepping the recurrence itself is kept in the tests as a third route.

Every backward value is a quotient whose only denominator is a power of
P_{k+1}(0) = +-det A.  Both routes keep their numerators in the
polynomial ring (the series by ``series_expand``, the matrix route by
stepping with adj(A)) and divide by that power once (``over_power``), so
a value is a MultiPoly when it is polynomial and a RatFunc in lowest
terms otherwise.  The generating-function route is one gcd-free series
expansion per (r, s, k, spec): ``negative_moments`` expands the reversed
gf -x P_r P^{(s+1)}_{k-s} / P_{k+1} once and lists a whole table from it.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

from .matrix import Matrix
from .poly import MultiPoly
from .ratfunc import RatFunc, cf_eval, invert_x, series_expand
from .weights import WeightSpec

Value = Union[MultiPoly, RatFunc]

_X = MultiPoly.variable("x")
_ONE = MultiPoly.const(1)


class IllDefinedError(ArithmeticError):
    """Negative moments requested for a spec whose recurrence degenerates."""

    def __init__(self, message: str, certificate: MultiPoly | None = None):
        super().__init__(message)
        self.certificate = certificate


# -- transfer matrix and forward moments ---------------------------------------

def transfer_matrix(k: int, spec: WeightSpec) -> Matrix:
    """(k+1)x(k+1) tridiagonal matrix with diagonal b, subdiagonal lam."""
    if k < 0:
        raise ValueError("bound k must be nonnegative")
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            if i == j:
                row.append(spec.b(i))
            elif j == i + 1:
                row.append(_ONE)
            elif j == i - 1:
                row.append(spec.lam(i))
            else:
                row.append(MultiPoly.zero())
        rows.append(row)
    return Matrix(rows)


def moment_vectors(k: int, spec: WeightSpec, r: int, n_max: int) -> Iterator[List[MultiPoly]]:
    """Yield the row vectors e_r^T A^n for n = 0..n_max."""
    if not 0 <= r <= k:
        raise IndexError(f"start height {r} outside [0, {k}]")
    u = [MultiPoly.const(1) if i == r else MultiPoly.zero() for i in range(k + 1)]
    yield u
    bs = [spec.b(i) for i in range(k + 1)]
    lams = [None] + [spec.lam(i) for i in range(1, k + 1)]
    for _ in range(n_max):
        nu = []
        for j in range(k + 1):
            acc = u[j] * bs[j]
            if j > 0:
                acc = acc + u[j - 1]
            if j < k:
                acc = acc + u[j + 1] * lams[j + 1]
            nu.append(acc)
        u = nu
        yield u


def adjugate_vectors(k: int, spec: WeightSpec, r: int,
                     t_max: int) -> Tuple[MultiPoly, List[List[MultiPoly]]]:
    """(det A, [e_r^T adj(A)^t for t = 0..t_max]): the mirror of
    ``moment_vectors``.  Since A^{-1} = adj(A) / det A, the backward row
    e_r^T A^{-t} is the t-th vector over det(A)^t, divided once by the
    caller.  (adj A, det A) come from ``usmani_inverse``, which raises
    IllDefinedError on a singular A."""
    if not 0 <= r <= k:
        raise IndexError(f"start height {r} outside [0, {k}]")
    C, det = usmani_inverse(k, spec)
    u = [MultiPoly.const(1) if i == r else MultiPoly.zero() for i in range(k + 1)]
    out = [u]
    for _ in range(t_max):
        u = [sum((u[t] * C[t, j] for t in range(k + 1)), MultiPoly.zero())
             for j in range(k + 1)]
        out.append(u)
    return det, out


def bounded_moment(n: int, r: int, s: int, k: int, spec: WeightSpec) -> MultiPoly:
    """Weighted count of bounded Motzkin paths: e_r^T A^n e_s."""
    if n < 0:
        raise ValueError("use negative_moment for negative indices")
    if not 0 <= s <= k:
        raise IndexError(f"end height {s} outside [0, {k}]")
    for i, u in enumerate(moment_vectors(k, spec, r, n)):
        if i == n:
            return u[s]
    raise AssertionError("unreachable")


# -- orthogonal polynomials and generating functions -----------------------------

def orth_poly(n: int, spec: WeightSpec) -> MultiPoly:
    """Monic P_n from P_{n+1} = (x - b_n) P_n - lam_n P_{n-1}."""
    if n < 0:
        return MultiPoly.zero()
    prev, cur = MultiPoly.zero(), MultiPoly.const(1)
    for i in range(n):
        prev, cur = cur, (_X - spec.b(i)) * cur - (spec.lam(i) * prev if i >= 1 else MultiPoly.zero())
    return cur


def inverted_poly(n: int, spec: WeightSpec) -> MultiPoly:
    """P*_n(x) = x^n P_n(1/x)."""
    return invert_x(orth_poly(n, spec), n)


def moment_gf(r: int, s: int, k: int, spec: WeightSpec) -> RatFunc:
    """Rational generating function of (mu_{n,r,s}^{<=k})_{n>=0} in x;
    the numerator's second factor is the inverted polynomial of the
    shifted sequences."""
    if not (0 <= r <= k and 0 <= s <= k):
        raise IndexError("heights must lie in [0, k]")
    den = inverted_poly(k + 1, spec)
    if r <= s:
        num = (_X ** (s - r)) * inverted_poly(r, spec) * inverted_poly(k - s, spec.shift(s + 1))
    else:
        prod = MultiPoly.const(1)
        for i in range(s + 1, r + 1):
            prod = prod * spec.lam(i)
        num = (_X ** (r - s)) * inverted_poly(s, spec) \
            * inverted_poly(k - r, spec.shift(r + 1)) * prod
    return RatFunc(num, den)


def negative_moment_gf(r: int, s: int, k: int, spec: WeightSpec) -> RatFunc:
    """Rational generating function of (mu_{-n,r,s}^{<=k})_{n>=1} in x:
    the forward gf reversed, f(x) -> -f(1/x), is
    -x P_r P^{(s+1)}_{k-s} / P_{k+1} (for r > s: -x P_s P^{(r+1)}_{k-r}
    lam_{s+1}..lam_r / P_{k+1}), kept as built: no gcd runs.  Checks the
    domain, then the heights."""
    _require_backward(k, spec)
    if not (0 <= r <= k and 0 <= s <= k):
        raise IndexError("heights must lie in [0, k]")
    den = orth_poly(k + 1, spec)
    if r <= s:
        num = -_X * orth_poly(r, spec) * orth_poly(k - s, spec.shift(s + 1))
    else:
        prod = MultiPoly.const(1)
        for i in range(s + 1, r + 1):
            prod = prod * spec.lam(i)
        num = -_X * orth_poly(s, spec) * orth_poly(k - r, spec.shift(r + 1)) * prod
    return RatFunc(num, den)


def viennot_cf(k: int, spec: WeightSpec) -> RatFunc:
    """Depth-(k+1) continued fraction for the forward moment series."""
    x2 = _X * _X
    nums = [_ONE] + [spec.lam(i) * x2 for i in range(1, k + 1)]
    dens = [_ONE - spec.b(i) * _X for i in range(k + 1)]
    return cf_eval(nums, dens)


def negative_cf(k: int, spec: WeightSpec) -> RatFunc:
    """Continued fraction -x/(x - b0 - lam1/(x - b1 - ...)) for the backward series."""
    _require_backward(k, spec)
    nums = [-_X] + [spec.lam(i) for i in range(1, k + 1)]
    dens = [_X - spec.b(i) for i in range(k + 1)]
    return cf_eval(nums, dens)


def _continuants(k: int, spec: WeightSpec) -> List[MultiPoly]:
    """[theta_0, ..., theta_{k+1}]: the leading principal minors of
    A(k; b, lam), theta_{i+1} = b_i theta_i - lam_i theta_{i-1}.  This is
    the three-term recurrence at x = 0, theta_i = (-1)^i P_i(0)."""
    theta = [MultiPoly.const(1)]
    for i in range(k + 1):
        t = spec.b(i) * theta[i]
        if i >= 1:
            t = t - spec.lam(i) * theta[i - 1]
        theta.append(t)
    return theta


def well_defined(k: int, spec: WeightSpec) -> Tuple[bool, MultiPoly]:
    """Whether the backward extension exists; certificate is
    P_{k+1}(0) = (-1)^{k+1} det A, from ``_continuants``."""
    det = _continuants(k, spec)[k + 1]
    cert = det if k % 2 else -det
    return (not cert.is_zero(), cert)


def _require_backward(k: int, spec: WeightSpec) -> None:
    ok, cert = well_defined(k, spec)
    if not ok:
        raise IllDefinedError(
            f"P_{k + 1}(0) = 0 for spec {spec.name}: no backward extension", cert)


# -- negative moments ---------------------------------------------------------------

def negative_moments(n_max: int, r: int, s: int, k: int, spec: WeightSpec) -> List[Value]:
    """[mu_{-1}, ..., mu_{-n_max}] (heights r, s, bound k) from one series
    expansion of ``negative_moment_gf``; ``series_expand`` divides each
    coefficient by its power of P_{k+1}(0) once."""
    return series_expand(negative_moment_gf(r, s, k, spec), n_max + 1)[1:]


def negative_moment(n: int, r: int, s: int, k: int, spec: WeightSpec) -> Value:
    """mu_{-n,r,s}^{<=k} from ``negative_moments``; prefer that for a
    whole table.  The matrix route is ``adjugate_vectors``."""
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    return negative_moments(n, r, s, k, spec)[n - 1]   # checks the domain first


# -- closed-form tridiagonal inverses ---------------------------------------------

def usmani_inverse(k: int, spec: WeightSpec) -> Tuple[Matrix, MultiPoly]:
    """Tridiagonal inverse A^{-1} = N / theta_{k+1} from the continuant
    recurrences, as the polynomial pair (N, theta_{k+1}) with
    A N = theta_{k+1} I; theta_{k+1} = det A and N = adj(A).  A singular A
    raises IllDefinedError with det A as its certificate.

    theta_i runs the leading principal minors and phi_i the trailing ones,
    phi_{j+2} = det A[j+1..k], which are the leading minors of the
    index-reversed matrix; N_{ij} is (-1)^{i+j} theta_i phi_{j+2} on and
    above the diagonal, with the product lam_{j+1}..lam_i attached below it.
    """
    theta = _continuants(k, spec)
    det = theta[k + 1]
    if det.is_zero():
        raise IllDefinedError(f"transfer matrix singular for {spec.name}", det)
    phi = _continuants(k, spec.reversed(k))   # phi_{j+2} = phi[k - j]
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            if i <= j:
                num = theta[i] * phi[k - j]
            else:
                prod = MultiPoly.const(1)
                for t in range(j + 1, i + 1):
                    prod = prod * spec.lam(t)
                num = prod * theta[j] * phi[k - i]
            if (i + j) % 2:
                num = -num
            row.append(num)
        rows.append(row)
    return Matrix(rows), det


def v_inverse_closed_form(k: int) -> Matrix:
    """Explicit inverse of the transfer matrix under the V-reciprocal weights.

    Defined for k != 1 (mod 3).  The (i, j) entry is a signed Laurent
    monomial +-(V_0..V_j)/(V_0..V_{i-1}) or zero; the sign/mask pattern
    follows from the continuant sequences, whose leading-minor side
    vanishes at residue 2 and whose trailing-minor side vanishes at
    residue 0 (for k = 2 mod 3) or residue 1 (for k = 0 mod 3), with a
    residue-dependent sign twist in the latter case.
    """
    if k % 3 == 1:
        raise IllDefinedError(f"bound {k} = 1 (mod 3): matrix is singular")

    def theta_side(m: int) -> int:
        # (-1)^m * sign(theta_m): 0 at residue 2
        return 0 if m % 3 == 2 else (-1) ** (m // 3)

    def phi_side(m: int) -> int:
        # (-1)^m * sign(phi_{m+2}): depends on k mod 3
        if k % 3 == 2:
            return 0 if m % 3 == 0 else (-1) ** (m // 3)
        if m % 3 == 1:
            return 0
        s = (-1) ** (m // 3)
        return s if m % 3 == 0 else -s

    tau = 1 if k % 3 == 2 else -1
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            sign = (theta_side(i) * phi_side(j) if i <= j
                    else theta_side(j) * phi_side(i)) * tau
            if sign == 0:
                row.append(MultiPoly.zero())
                continue
            mono = MultiPoly.const(sign)
            for t in range(0, j + 1):
                mono = mono * MultiPoly.variable("V", t)
            for t in range(0, i):
                mono = mono * MultiPoly.variable("V", t, -1)
            row.append(mono)
        rows.append(row)
    return Matrix(rows)
