"""Closed-form bounded and negative moments of orthogonal polynomials.

The forward side is the transfer-matrix picture: the (r, s) entry of the
n-th power of the tridiagonal matrix

    A(k; b, lam) = tridiag(lam_1..lam_k; b_0..b_k; 1..1)

is the weighted count of height-bounded Motzkin paths from height r to
height s.  ``moment_vectors`` steps the rows e_r^T A^n.  A is tridiagonal,
so a table of one entry (``forward_moments``, ``bounded_moment``) forms at
step n only the light cone of its end height s, the entries j with
|j - s| <= n_max - n that are not zero anyway (|j - r| <= n); whole rows
are kept only for the identities that sum them.

The backward side extends that sequence along its linear recurrence by
one route: stepping the inverse A^{-1} = adj(A) / det A.  One continuant
loop, ``_continuants``, gives the leading and trailing minors of A, and
from them det A, ``well_defined``'s P_{k+1}(0) = (-1)^{k+1} det A, and
the factors of adj(A), which is semiseparable, so a row steps through
u -> u adj(A) in O(k) products (``adjugate_vectors``,
``negative_moments``).  ``usmani_inverse`` writes the same factors out as
a matrix in O(k^2) products, each lower column from one running product
of the lam_i.  All of them refuse a negative bound k, as
``transfer_matrix`` does.  The paper's other route, reversing the
generating function, and stepping the recurrence itself are kept in the
tests as oracles.

Every backward value is a quotient whose only denominator is a power of
det A.  The rows stay in the polynomial ring and each value is divided by
its power once (``over_power``), so a value is a MultiPoly when it is
polynomial and a RatFunc in lowest terms otherwise.  A zero lam_i makes
A block triangular, so det A is handed out as its blocks, the
continuants of the runs of A between zero lam_i (one block, det A
itself, when no lam_i is zero).  A table pays each fixed cost once: a
step sums each entry's products into one term dict (``poly_dot``), and
``over_power`` certifies each block irreducible once
(``poly.irreducible``, one small gcd, cached by the block).  After that
a failed trial division by a block proves a value coprime to it, so no
value takes a gcd.
"""

from __future__ import annotations

from math import prod
from typing import Iterator, List, Tuple, Union

from .matrix import Matrix
from .poly import MultiPoly, poly_dot
from .ratfunc import RatFunc, over_power
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


def moment_vectors(k: int, spec: WeightSpec, r: int, n_max: int,
                   s: int | None = None) -> Iterator[List[MultiPoly]]:
    """Yield the row vectors e_r^T A^n for n = 0..n_max.

    A is tridiagonal, so entry j of the n-th row is zero when |j - r| > n
    and is not formed.  With a target height s, step n forms entry j only
    when it can still reach s in the steps left, |j - s| <= n_max - n, and
    leaves the others zero, so only entry s is exact in every row.  Whole
    rows (no s) are for the callers that sum them.  Checks the end height
    s, then the start height r."""
    if s is not None and not 0 <= s <= k:
        raise IndexError(f"end height {s} outside [0, {k}]")
    if not 0 <= r <= k:
        raise IndexError(f"start height {r} outside [0, {k}]")
    zero = MultiPoly.zero()
    u = [zero] * (k + 1)
    u[r] = MultiPoly.const(1)
    yield u
    bs = [spec.b(i) for i in range(k + 1)]
    lams = [None] + [spec.lam(i) for i in range(1, k + 1)]
    lo, hi = (0, k) if s is None else (s, s)   # the entries the caller reads
    for n in range(1, n_max + 1):
        left = n_max - n                         # steps still to take
        nu = [zero] * (k + 1)
        for j in range(max(0, r - n, lo - left), min(k, r + n, hi + left) + 1):
            acc = u[j] * bs[j]
            if j > 0:
                acc = acc + u[j - 1]
            if j < k:
                acc = acc + u[j + 1] * lams[j + 1]
            nu[j] = acc
        u = nu
        yield u


def forward_moments(n_max: int, r: int, s: int, k: int, spec: WeightSpec) -> List[MultiPoly]:
    """[mu_0, ..., mu_{n_max}] (heights r, s, bound k), mu_n = e_r^T A^n e_s:
    the mirror of ``negative_moments``, one stepping of ``moment_vectors``
    for the whole table, forming at step n only the light cone of entry s.
    Checks n_max >= 0, then the end height, then the start height."""
    if n_max < 0:
        raise ValueError("use negative_moment for negative indices")
    return [u[s] for u in moment_vectors(k, spec, r, n_max, s)]


def bounded_moment(n: int, r: int, s: int, k: int, spec: WeightSpec) -> MultiPoly:
    """Weighted count of bounded Motzkin paths: e_r^T A^n e_s, from
    ``forward_moments``; prefer that for a whole table."""
    return forward_moments(n, r, s, k, spec)[n]


# -- orthogonal polynomials and continuants ---------------------------------------

def orth_poly(n: int, spec: WeightSpec) -> MultiPoly:
    """Monic P_n from P_{n+1} = (x - b_n) P_n - lam_n P_{n-1}."""
    if n < 0:
        return MultiPoly.zero()
    prev, cur = MultiPoly.zero(), MultiPoly.const(1)
    for i in range(n):
        prev, cur = cur, (_X - spec.b(i)) * cur - (spec.lam(i) * prev if i >= 1 else MultiPoly.zero())
    return cur


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


def well_defined(k: int, spec: WeightSpec,
                 theta: List[MultiPoly] | None = None) -> Tuple[bool, MultiPoly]:
    """Whether the backward extension exists; certificate is
    P_{k+1}(0) = (-1)^{k+1} det A, from ``_continuants``, or from
    ``theta`` when the caller already holds the continuants of ``spec``."""
    det = (theta or _continuants(k, spec))[k + 1]
    cert = det if k % 2 else -det
    return (not cert.is_zero(), cert)


# -- the inverse of A and negative moments ---------------------------------------

def _adjugate_factors(k: int, spec: WeightSpec, singular: str) -> Tuple[
        Tuple[MultiPoly, ...], List[MultiPoly], List[MultiPoly], List[MultiPoly | None]]:
    """(blocks, t, s, lam) with adj(A) semiseparable (Usmani 1994):

        adj(A)_ij = t_i s_j                        (i <= j)
                  = lam_{j+1} .. lam_i t_j s_i     (i > j),

    t_i = (-1)^i theta_i from the leading principal minors and
    s_i = (-1)^i phi_{k-i} from the trailing ones, phi being the continuants
    of the index-reversed spec.  A zero lam_i makes A block triangular, so
    det A is the product of ``blocks``, the continuants of the runs of A
    between zero lam_i; with none, blocks is (det A,).  A negative bound k
    raises ValueError, and a singular A (``well_defined`` on the
    continuants already stepped) IllDefinedError(singular) with det A as
    its certificate."""
    if k < 0:
        raise ValueError("bound k must be nonnegative")
    theta = _continuants(k, spec)
    # the domain test is a call of well_defined, which perfbench's traced
    # numeric-oracle run counts, on the continuants stepped here
    if not well_defined(k, spec, theta)[0]:
        raise IllDefinedError(singular, theta[k + 1])
    phi = _continuants(k, spec.reversed(k))
    lam = [None] + [spec.lam(i) for i in range(1, k + 1)]
    cuts = [0] + [i for i in range(1, k + 1) if lam[i].is_zero()] + [k + 1]
    blocks = (theta[k + 1],) if len(cuts) == 2 else tuple(
        _continuants(hi - lo - 1, spec.shift(lo))[-1] for lo, hi in zip(cuts, cuts[1:]))
    t = [-theta[i] if i % 2 else theta[i] for i in range(k + 1)]
    s = [-phi[k - i] if i % 2 else phi[k - i] for i in range(k + 1)]
    return blocks, t, s, lam


def _adjugate_rows(r: int, t_max: int, t: List[MultiPoly], s: List[MultiPoly],
                   lam: List[MultiPoly | None]) -> List[List[MultiPoly]]:
    """[e_r^T adj(A)^n for n = 0..t_max] from the factors of adj(A), each
    step u -> u adj(A) in O(k) products with no (k+1)^2 matrix built:
    v_j = s_j S_j + t_j T_j, S_j = sum_{i<=j} u_i t_i and
    T_j = lam_{j+1} (T_{j+1} + u_{j+1} s_{j+1}), T_k = 0.  Each of the
    three sums is one ``poly_dot``, which builds none of its products."""
    zero = MultiPoly.zero()
    u = [MultiPoly.const(1) if i == r else zero for i in range(len(t))]
    out = [u]
    for _ in range(t_max):
        T = [zero] * len(u)
        for j in range(len(u) - 2, -1, -1):
            T[j] = lam[j + 1] * poly_dot(((u[j + 1], s[j + 1]),), T[j + 1])
        S, v = zero, []
        for j, uj in enumerate(u):
            S = poly_dot(((uj, t[j]),), S)
            v.append(poly_dot(((s[j], S), (t[j], T[j]))))
        u = v
        out.append(u)
    return out


def adjugate_vectors(k: int, spec: WeightSpec, r: int,
                     t_max: int) -> Tuple[Tuple[MultiPoly, ...], List[List[MultiPoly]]]:
    """(blocks, [e_r^T adj(A)^t for t = 0..t_max]): the mirror of
    ``moment_vectors``, det A being the product of the blocks of
    ``_adjugate_factors``.  Since A^{-1} = adj(A) / det A, the backward row
    e_r^T A^{-t} is the t-th vector over det(A)^t, divided once by the
    caller (``over_power`` takes the blocks).  Checks the bound k, then
    that A is not singular (IllDefinedError), then the start height."""
    blocks, t, s, lam = _adjugate_factors(k, spec, f"transfer matrix singular for {spec.name}")
    if not 0 <= r <= k:
        raise IndexError(f"start height {r} outside [0, {k}]")
    return blocks, _adjugate_rows(r, t_max, t, s, lam)


def negative_moments(n_max: int, r: int, s: int, k: int, spec: WeightSpec) -> List[Value]:
    """[mu_{-1}, ..., mu_{-n_max}] (heights r, s, bound k):
    mu_{-t} = (e_r^T adj(A)^t e_s) / det(A)^t, one stepping for the whole
    table, each value divided once by ``over_power`` by the blocks of det A.
    Checks the bound k, then the domain (P_{k+1}(0) = +-det A), then the
    heights."""
    blocks, t_hat, s_hat, lam = _adjugate_factors(
        k, spec, f"P_{k + 1}(0) = 0 for spec {spec.name}: no backward extension")
    if not (0 <= r <= k and 0 <= s <= k):
        raise IndexError("heights must lie in [0, k]")
    vecs = _adjugate_rows(r, n_max, t_hat, s_hat, lam)
    return [over_power(vecs[t][s], blocks, t) for t in range(1, n_max + 1)]


def negative_moment(n: int, r: int, s: int, k: int, spec: WeightSpec) -> Value:
    """mu_{-n,r,s}^{<=k} from ``negative_moments``; prefer that for a
    whole table."""
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    return negative_moments(n, r, s, k, spec)[n - 1]   # checks the domain first


def usmani_inverse(k: int, spec: WeightSpec) -> Tuple[Matrix, MultiPoly]:
    """Tridiagonal inverse A^{-1} = N / det A as the polynomial pair
    (N, det A) with A N = det(A) I, N = adj(A) written out from
    ``_adjugate_factors`` in O(k^2) products: t_i s_j on and above the
    diagonal, and down each lower column j a running product
    q = t_j lam_{j+1} .. lam_i, so that entry (i, j) is q s_i.  A negative
    bound k raises ValueError, and a singular A IllDefinedError with det A
    as its certificate."""
    blocks, t, s, lam = _adjugate_factors(k, spec, f"transfer matrix singular for {spec.name}")
    rows = [[t[i] * s[j] if i <= j else None for j in range(k + 1)] for i in range(k + 1)]
    for j in range(k):
        q = t[j]
        for i in range(j + 1, k + 1):
            q = q * lam[i]
            rows[i][j] = q * s[i]
    return Matrix(rows), prod(blocks[1:], start=blocks[0])   # det A, no product for one block


def v_inverse_closed_form(k: int) -> Matrix:
    """Explicit inverse of the transfer matrix under the V-reciprocal weights.

    Defined for k >= 0 with k != 1 (mod 3); a negative k raises ValueError.
    The (i, j) entry is a signed Laurent monomial
    +-(V_0..V_j)/(V_0..V_{i-1}) or zero, two products of running prefix
    products each, so O(k^2) in all; the sign/mask pattern
    follows from the continuant sequences, whose leading-minor side
    vanishes at residue 2 and whose trailing-minor side vanishes at
    residue 0 (for k = 2 mod 3) or residue 1 (for k = 0 mod 3), with a
    residue-dependent sign twist in the latter case.
    """
    if k < 0:
        raise ValueError("bound k must be nonnegative")
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
    up, down = [_ONE], [_ONE]   # up[j + 1] = V_0..V_j, down[i] = 1/(V_0..V_{i-1})
    for t in range(k + 1):
        up.append(up[-1] * MultiPoly.variable("V", t))
        down.append(down[-1] * MultiPoly.variable("V", t, -1))
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            sign = (theta_side(i) * phi_side(j) if i <= j
                    else theta_side(j) * phi_side(i)) * tau
            if sign == 0:
                row.append(MultiPoly.zero())
                continue
            row.append(MultiPoly.const(sign) * up[j + 1] * down[i])
        rows.append(row)
    return Matrix(rows)
