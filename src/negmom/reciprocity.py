"""Determinant-reciprocity identities between forward and backward moment
grids, with structured pass/fail certificates.

Every check computes both sides exactly from independent routes (closed
forms on one side, brute-force enumeration or a second closed route on
the other) and reports an ``IdentityCheck``.  Rational sides are compared
by cross-multiplication so no reduction of large intermediates is needed;
a failing check carries the first differing monomial as a witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import paths
from .laurent import schroeder_count_reciprocity, sigma_moment, sigma_negative
from .matrix import Matrix, determinant
from .moments import (
    IllDefinedError,
    adjugate_vectors,
    bounded_moment,
    moment_vectors,
    negative_moment,
    negative_moment_gf,
    negative_moments,
    transfer_matrix,
    usmani_inverse,
    v_inverse_closed_form,
    well_defined,
)
from .poly import Q_VAR, MultiPoly
from .ratfunc import RatFunc, cf_eval, over_power, series_expand
from .weights import (
    WeightSpec,
    av_lambda,
    b_special,
    doubled_even,
    doubled_odd,
    dyck_v,
    laurent_reciprocal,
    laurent_symbolic,
    one_one,
    spec as make_spec,
    symbolic,
    v_inverse,
    zero_one,
)

Value = Union[MultiPoly, RatFunc, int, Fraction]

_ONE = MultiPoly.const(1)


class IdentityCheck:
    """One verified tuple: status PASS | FAIL | SKIPPED, both sides when
    computed, the first differing monomial of a FAIL as ``witness`` and
    the reason of a SKIPPED as ``reason``."""
    __slots__ = ("identity", "params", "status", "lhs", "rhs", "witness", "reason")

    def __init__(self, identity: str, params: Dict[str, object], status: str,
                 lhs: Optional[Value] = None, rhs: Optional[Value] = None,
                 witness: Optional[str] = None, reason: Optional[str] = None):
        self.identity = identity
        self.params = params
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.witness = witness
        self.reason = reason

    def __repr__(self):
        return (f"IdentityCheck({self.identity!r}, {self.params!r}, {self.status!r}, "
                f"witness={self.witness!r}, reason={self.reason!r})")

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _as_ratfunc(v: Value) -> RatFunc:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, MultiPoly):
        return RatFunc(v, reduce=False)
    return RatFunc(MultiPoly.const(v), reduce=False)


def _first_monomial(p: MultiPoly) -> str:
    mono, coeff = p.leading()
    return MultiPoly.monomial(coeff, mono).render()


def check_values(identity: str, params: Dict[str, object],
                 lhs: Value, rhs: Value) -> IdentityCheck:
    """Build a certificate for lhs == rhs, cross-multiplying rational sides."""
    lr, rr = _as_ratfunc(lhs), _as_ratfunc(rhs)
    diff = lr.num * rr.den - rr.num * lr.den
    if diff.is_zero():
        return IdentityCheck(identity, params, "PASS", lhs, rhs)
    return IdentityCheck(identity, params, "FAIL", lhs, rhs,
                         witness=_first_monomial(diff))


def skipped(identity: str, params: Dict[str, object], reason: str) -> IdentityCheck:
    return IdentityCheck(identity, params, "SKIPPED", reason=reason)


def _require_negative_index(n: int, k: int, k_min: int) -> None:
    """The domain of an identity on mu_{-n} whose bound is computed from k:
    n >= 1 and k >= k_min.  Outside it a ValueError, which ``verify``
    reports as SKIPPED with the message as the reason."""
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    if k < k_min:
        raise ValueError(f"needs k >= {k_min}")


def _combine(identity: str, params: Dict[str, object],
             subchecks: Sequence[IdentityCheck]) -> IdentityCheck:
    for sub in subchecks:
        if sub.status == "FAIL":
            return IdentityCheck(identity, params, "FAIL", sub.lhs, sub.rhs,
                                 witness=sub.witness, reason=sub.reason)
    return IdentityCheck(identity, params, "PASS")


# -- moment grids -----------------------------------------------------------------

def _forward_sequence(k: int, spec: WeightSpec, n_max: int) -> List[MultiPoly]:
    return [u[0] for u in moment_vectors(k, spec, 0, n_max)]


def _backward_sequence(k: int, spec: WeightSpec, n_max: int) -> List[Value]:
    """[mu_0, mu_{-1}, ..., mu_{-n_max}] via the reversed generating function."""
    return [MultiPoly.const(1)] + negative_moments(n_max, 0, 0, k, spec)


def det_moment_grid(sign: str, n: int, k: int, m: int, spec: WeightSpec) -> Value:
    """Determinant of the forward (k x k) or backward (m x m) moment grid.

    Forward entries are mu_{n+i+j+2m-2}, backward entries mu_{-n-i-j},
    both at bound k+m-1.  Empty grids give 1.
    """
    bound = k + m - 1
    if sign == "positive":
        if k == 0:
            return _ONE
        seq = _forward_sequence(bound, spec, n + 2 * (k - 1) + 2 * m - 2)
        rows = [[seq[n + i + j + 2 * m - 2] for j in range(k)] for i in range(k)]
        return determinant(Matrix(rows))
    if sign == "negative":
        if m == 0:
            return _ONE
        ok, cert = well_defined(bound, spec)
        if not ok:
            raise IllDefinedError("backward grid undefined", cert)
        seq = _backward_sequence(bound, spec, n + 2 * (m - 1))
        rows = [[seq[n + i + j] for j in range(m)] for i in range(m)]
        if all(isinstance(e, MultiPoly) for row in rows for e in row):
            return determinant(Matrix(rows))
        return determinant(Matrix([[_as_ratfunc(e) for e in row] for row in rows]))
    raise ValueError("sign must be 'positive' or 'negative'")


def check_main_reciprocity(n: int, k: int, m: int, spec: WeightSpec) -> IdentityCheck:
    """Forward k x k grid determinant against the lam-power and det-power
    weighted, index-reversed backward m x m grid determinant."""
    params = {"n": n, "k": k, "m": m, "spec": spec.name}
    ident = "main"
    if n < 1 or k < 1 or m < 1:
        return skipped(ident, params, "needs positive n, k, m")
    K = k + m - 1
    ok, cert = well_defined(K, spec)
    if not ok:
        return skipped(ident, params, f"P_{K + 1}(0) = 0: backward side undefined")
    lhs = det_moment_grid("positive", n, k, m, spec)
    d = cert if K % 2 else -cert   # P_{K+1}(0) = det(-A) = (-1)^(K+1) det A
    # the backward grid and its det A on the reversed weights b_{K-i}, lam_{K+1-i}
    d_rev, vecs = adjugate_vectors(K, spec.reversed(K), 0, n + 2 * (m - 1))
    rows = [[vecs[n + i + j][0] for j in range(m)] for i in range(m)]
    det_h_rev = determinant(Matrix(rows))
    denom_power = m * n + m * (m - 1)
    rhs_num = d ** (n + 2 * m - 2) * det_h_rev
    rhs_den = d_rev ** denom_power
    for i in range(1, K + 1):
        e = k - i
        if e >= 0:
            rhs_num = rhs_num * spec.lam(i) ** e
        else:
            rhs_den = rhs_den * spec.lam(i) ** (-e)
    return check_values(ident, params, RatFunc(lhs, reduce=False),
                        RatFunc(rhs_num, rhs_den, reduce=False))


def check_theorem15(n: int, k: int, m: int) -> IdentityCheck:
    """Equality of the two Dyck-count grid determinants at odd bound."""
    params = {"n": n, "k": k, "m": m}
    if min(k, m) < 0 or (n < 0 and k + m):   # both grids are empty at k = m = 0
        return skipped("thm15", params, "needs n, k, m >= 0")
    spec = zero_one()
    bound = 2 * k + 2 * m - 1
    if k == 0:
        lhs: Value = _ONE
    else:
        # the m = 0 edge sends forward entries to (extended) negative indices
        seq = _forward_sequence(bound, spec, max(2 * n + 4 * (k - 1) + 4 * m - 2, 0))
        back = _backward_sequence(bound, spec, 2)
        ext = lambda j: seq[j] if j >= 0 else back[-j]
        rows = [[ext(2 * n + 2 * i + 2 * j + 4 * m - 2) for j in range(k)]
                for i in range(k)]
        lhs = determinant(Matrix(rows))
    if m == 0:
        rhs: Value = _ONE
    else:
        back = _backward_sequence(bound, spec, 2 * n + 4 * (m - 1))
        rows = [[back[2 * n + 2 * i + 2 * j] for j in range(m)] for i in range(m)]
        rhs = determinant(Matrix(rows))
    return check_values("thm15", params, lhs, rhs)


def check_conjecture50(n: int, k: int, m: int) -> IdentityCheck:
    """Row-sum moment grid against the signed grid of alternating-sequence
    counts."""
    params = {"n": n, "k": k, "m": m}
    if k < 0 or m < 0:
        return skipped("conj50", params, "needs k, m >= 0")
    K = k + m
    bound = 2 * K - 1
    spec = zero_one()
    if k == 0:
        lhs: Value = _ONE
    else:
        n_max = max(n + 2 * (k - 1) + 2 * m - 1, 0)
        sums: List[Value] = []
        for u in moment_vectors(bound, spec, 0, n_max):
            acc = MultiPoly.zero()
            for c in u:
                acc = acc + c
            sums.append(acc)
        neg_sums: List[Value] = [sums[0]]
        if n + 2 * m - 1 < 0:
            # the (n, m) = (0, 0) corner reaches one step backwards
            det, vecs = adjugate_vectors(bound, spec, 0, -(n + 2 * m - 1))
            for t, u in enumerate(vecs[1:], 1):
                neg_sums.append(over_power(sum(u, MultiPoly.zero()), det, t))
        ext = lambda j: sums[j] if j >= 0 else neg_sums[-j]
        rows = [[ext(n + i + j + 2 * m - 1) for j in range(k)] for i in range(k)]
        lhs = determinant(Matrix(rows))
    if m == 0:
        rhs: Value = _ONE
    else:
        rows = [[MultiPoly.const(paths.count_alt(n + i + j, K)) for j in range(m)]
                for i in range(m)]
        rhs = determinant(Matrix(rows))
    sign = (-1) ** ((comb(k, 2) + comb(m, 2)) * (n + 1))
    return check_values("conj50", params, lhs, sign * rhs)


def check_conjecture53(n: int, k: int, m: int) -> IdentityCheck:
    """All-ones-weight grid reciprocity, defined away from k+m = 2 (mod 3)."""
    params = {"n": n, "k": k, "m": m}
    if (k + m) % 3 == 2:
        return skipped("conj53", params, "k+m = 2 (mod 3): backward side undefined")
    if n < 1 or k < 1 or m < 1:
        return skipped("conj53", params, "needs positive n, k, m")
    spec = one_one()
    bound = k + m - 1
    lhs = det_moment_grid("positive", n, k, m, spec)
    rhs = det_moment_grid("negative", n, k, m, spec)
    sign = (-1) ** (n * ((k + m) // 3))
    return check_values("conj53", params, lhs, sign * rhs)


def check_theorem34(n: int, k: int, m: int) -> IdentityCheck:
    """Grid reciprocity for Dyck-path moments with fully symbolic lam; the
    backward grid is taken on ``spec.reversed(2k+2m-1)``, lam_i -> lam_{2k+2m-i}."""
    params = {"n": n, "k": k, "m": m}
    if n < 1 or k < 1 or m < 1:
        return skipped("thm34", params, "needs positive n, k, m")
    spec = make_spec("zero", "symbolic")
    bound = 2 * k + 2 * m - 1
    seq = _forward_sequence(bound, spec, 2 * n + 4 * (k - 1) + 4 * m - 2)
    rows = [[seq[2 * n + 2 * i + 2 * j + 4 * m - 2] for j in range(k)] for i in range(k)]
    lhs = determinant(Matrix(rows))
    back = _backward_sequence(bound, spec.reversed(bound), 2 * n + 4 * (m - 1))
    rows_b = [[back[2 * n + 2 * i + 2 * j] for j in range(m)] for i in range(m)]
    det_b = determinant(Matrix(rows_b))
    prefactor = MultiPoly.const(1)
    for i in range(1, k + m):
        prefactor = prefactor * MultiPoly.variable("lam", 2 * i) ** (k - i)
    for i in range(1, k + m + 1):
        prefactor = prefactor * MultiPoly.variable("lam", 2 * i - 1) ** (k - i + n + 2 * m - 1)
    rhs = prefactor * det_b
    return check_values("thm34", params, lhs, rhs)


def check_dyck_motzkin_connection(n: int, k: int) -> IdentityCheck:
    """Even Dyck moments as Motzkin moments of the paired-index weights."""
    params = {"n": n, "k": k}
    spec = make_spec("zero", "symbolic")
    lhs = bounded_moment(2 * n, 0, 0, 2 * k - 1, spec)
    mid = bounded_moment(n, 0, 0, k - 1, doubled_even())
    sub = [check_values("dyck-motzkin", params, lhs, mid)]
    if n >= 1:
        third = MultiPoly.variable("lam", 1) * bounded_moment(n - 1, 0, 0, k - 1, doubled_odd())
        third = third.subs({("lam", 2 * k): 0})
        sub.append(check_values("dyck-motzkin", params, lhs, third))
    det_lhs = determinant(transfer_matrix(k - 1, doubled_even()))
    prod = MultiPoly.const(1)
    for i in range(1, k + 1):
        prod = prod * MultiPoly.variable("lam", 2 * i - 1)
    sub.append(check_values("dyck-motzkin", params, det_lhs, prod))
    return _combine("dyck-motzkin", params, sub)


# -- reverse plane partitions --------------------------------------------------------

def _rpp_weight_sum(n: int, m: int, k: int) -> MultiPoly:
    total = MultiPoly.zero()
    for filling in paths.rpp_fillings(n, m, k):
        total = total + paths.wt_rpp(filling, n)
    return total


def _alt_av_sum(length: int, bound: int) -> MultiPoly:
    total = MultiPoly.zero()
    for seq in paths.alt_sequences(length, bound, down_first=True):
        total = total + paths.wt_seq_av(seq)
    return total


def rpp_prefactor_exponent(n: int, m: int) -> int:
    num = m * (m + 1) * (6 * n + 8 * m - 5)
    if num % 6:
        raise ArithmeticError("prefactor exponent is not an integer")
    return num // 6


def _alt_q_series(length: int, bound: int, trunc: int) -> List[int]:
    """Coefficients of sum q^{|s|} over down-first alternating sequences of
    the given length with entries in [1, bound], truncated below q^trunc.

    Dynamic programming over (position, last value); independent of the
    enumerators so the two can be cross-checked.
    """
    if length == 0:
        out = [0] * trunc
        if trunc:
            out[0] = 1
        return out
    # table[v] = coefficient list for sequences ending at value v
    table = [[0] * trunc for _ in range(bound + 1)]
    for v in range(1, bound + 1):
        if v < trunc:
            table[v][v] = 1
    for pos in range(2, length + 1):
        descending = (pos % 2 == 0)  # down-first: a1 >= a2 <= a3 >= ...
        new = [[0] * trunc for _ in range(bound + 1)]
        # prefix[v] = sum of table[u] over admissible previous values u
        acc = [0] * trunc
        rng = range(bound, 0, -1) if descending else range(1, bound + 1)
        for v in rng:
            prev_vals = table[v]
            for t in range(trunc):
                acc[t] += prev_vals[t]
            shifted = new[v]
            for t in range(trunc - v):
                shifted[t + v] = acc[t]
        table = new
    out = [0] * trunc
    for v in range(1, bound + 1):
        for t in range(trunc):
            out[t] += table[v][t]
    return out


def check_rpp_identity(n: int, m: int, k: int, mode: str = "symbolic-VA",
                       trunc: int = 8) -> IdentityCheck:
    """Bounded reverse-plane-partition sums against alternating-sequence
    grid determinants (multivariate, q-specialized, or unbounded mod q^N)."""
    params = {"n": n, "m": m, "k": k, "mode": mode}
    if m < 1 or n < 0 or k < 0:
        return skipped("rpp", params, "needs m >= 1, n >= 0, k >= 0")
    if mode == "symbolic-VA":
        lhs = _rpp_weight_sum(n, m, k)
        rows = [[_alt_av_sum(2 * n + 2 * i + 2 * j + 1, k + m) for j in range(m)]
                for i in range(m)]
        rhs = determinant(Matrix(rows))
        return check_values("rpp", params, lhs, rhs)
    if mode == "q":
        expo = rpp_prefactor_exponent(n, m)
        lhs = MultiPoly.zero()
        for filling in paths.rpp_fillings(n, m, k):
            lhs = lhs + MultiPoly.variable("q", exp=paths.rpp_total(filling))
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = MultiPoly.zero()
                for seq in paths.alt_sequences(2 * n + 2 * i + 2 * j + 1, k + m,
                                               down_first=True):
                    acc = acc + MultiPoly.variable("q", exp=sum(seq))
                row.append(acc)
            rows.append(row)
        det = determinant(Matrix(rows))
        rhs = MultiPoly.variable("q", exp=-expo) * det
        return check_values("rpp", params, lhs, rhs)
    if mode == "q-unbounded":
        expo = rpp_prefactor_exponent(n, m)
        entry_trunc = trunc + expo
        bound = entry_trunc  # entries above the truncation cannot contribute
        lhs_fillings = paths.rpp_fillings(n, m, trunc - 1, max_total=trunc - 1)
        lhs_coeffs = [0] * trunc
        for filling in lhs_fillings:
            lhs_coeffs[paths.rpp_total(filling)] += 1
        dets = []
        for extra in (0, 1):  # stabilization in the entry bound is asserted
            rows = []
            for i in range(m):
                row = []
                for j in range(m):
                    coeffs = _alt_q_series(2 * n + 2 * i + 2 * j + 1,
                                           bound + extra, entry_trunc)
                    acc = MultiPoly.zero()
                    for t, c in enumerate(coeffs):
                        if c:
                            acc = acc + c * MultiPoly.variable("q", exp=t)
                    row.append(acc)
                rows.append(row)
            dets.append(determinant(Matrix(rows)))
        if dets[0] != dets[1]:
            return IdentityCheck("rpp", params, "FAIL",
                                 witness="entry-bound stabilization failed")
        rhs_series = MultiPoly.variable("q", exp=-expo) * dets[0]
        rhs_coeffs = [0] * trunc
        for e, coeff in rhs_series.as_univariate(Q_VAR).items():
            if 0 <= e < trunc:
                rhs_coeffs[e] += int(coeff.as_fraction())
        def q_series(coeffs: List[int]) -> MultiPoly:
            return sum((c * MultiPoly.variable("q", exp=t) for t, c in enumerate(coeffs)),
                       MultiPoly.zero())
        return check_values("rpp", params, q_series(lhs_coeffs), q_series(rhs_coeffs))
    return skipped("rpp", params, f"unknown mode {mode!r}")


# -- special matrices ---------------------------------------------------------------

def alt_transfer_matrix(k: int) -> Matrix:
    """0/1 matrix whose powers count bounded alternating sequences."""
    size = 2 * k + 2
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            one = (i % 2 == 0 and j % 2 == 1 and i < j) or \
                  (i % 2 == 1 and j % 2 == 0 and i > j)
            row.append(MultiPoly.const(1 if one else 0))
        rows.append(row)
    return Matrix(rows)


def b_matrix(k: int) -> Matrix:
    """Signed max-profile matrix inverting the reversed special transfer
    matrix."""
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            mag = k + 1 - max(i, j)
            sign = (-1) ** (((k - i) // 2) + ((k + 1 - j) // 2))
            row.append(MultiPoly.const(sign * mag))
        rows.append(row)
    return Matrix(rows)


def reversed_special_matrix(k: int) -> Matrix:
    """Transfer matrix of the index-reversed alternating-sign weights."""
    return transfer_matrix(k, b_special(k).reversed(k))


def check_special_dets(k: int) -> IdentityCheck:
    """Closed forms for the two special transfer-matrix determinants, the
    B-matrix inverse identity, and the alternating-count transfer powers."""
    params = {"k": k}
    sub: List[IdentityCheck] = []
    det1 = determinant(transfer_matrix(k - 1, one_one()))
    want1 = MultiPoly.const(0 if k % 3 == 2 else (-1) ** (k // 3))
    sub.append(check_values("special-dets", params, det1, want1))
    det2 = determinant(transfer_matrix(k - 1, b_special(k - 1)))
    want2 = MultiPoly.const((-1) ** (k // 2))
    sub.append(check_values("special-dets", params, det2, want2))
    if k <= 6:
        prod = b_matrix(k) * reversed_special_matrix(k)
        ident = Matrix.identity(k + 1)
        okay = prod == ident
        sub.append(IdentityCheck("special-dets", params,
                                 "PASS" if okay else "FAIL",
                                 witness=None if okay else "B * Abar != I"))
    return _combine("special-dets", params, sub)


def check_alt_transfer_counts(n: int, k: int) -> IdentityCheck:
    """e_0^T (A')^n (1,...,1)^T equals the brute-force alternating count."""
    params = {"n": n, "k": k}
    A = alt_transfer_matrix(k)
    u = [MultiPoly.const(1 if i == 0 else 0) for i in range(2 * k + 2)]
    for _ in range(n):
        u = [sum((u[t] * A[t, j] for t in range(2 * k + 2)), MultiPoly.zero())
             for j in range(2 * k + 2)]
    total = sum((c for c in u), MultiPoly.zero())
    return check_values("alt-transfer", params, total,
                        MultiPoly.const(paths.count_alt(n, k + 1)))


def check_alt_cf(k: int, order: int = 8) -> IdentityCheck:
    """Continued-fraction series for bounded alternating-sequence counts."""
    params = {"k": k, "order": order}
    if k < 0:
        return skipped("alt-cf", params, "bound k must be nonnegative")
    y = MultiPoly.const((-1) ** k) * MultiPoly.variable("x")
    bs = [MultiPoly.const((-1) ** k)] + \
         [MultiPoly.const((-1) ** (k - i) * 2) for i in range(1, k + 1)]
    nums = [-y] + [MultiPoly.const(-1)] * k
    dens = [y - b for b in bs]
    f = cf_eval(nums, dens)
    ser = series_expand(f, order + 1)
    sub = []
    for n in range(1, order + 1):
        sub.append(check_values("alt-cf", {**params, "n": n}, ser[n],
                                MultiPoly.const(paths.count_alt(n, k + 1))))
    return _combine("alt-cf", params, sub)


# -- classic count reciprocity ---------------------------------------------------------

def check_ck(n: int, k: int) -> IdentityCheck:
    """Negative even Dyck moments as bounded alternating-sequence counts."""
    params = {"n": n, "k": k}
    _require_negative_index(n, k, 1)
    lhs = negative_moment(2 * n, 0, 0, 2 * k - 1, zero_one())
    rhs = MultiPoly.const(paths.count_alt(2 * n - 1, k))
    return check_values("ck", params, lhs, rhs)


def check_ck_rs(n: int, k: int, r: int, s: int) -> IdentityCheck:
    """Both endpoint-pinned reciprocity identities for Dyck moments."""
    params = {"n": n, "k": k, "r": r, "s": s}
    if not (1 <= r <= k and 1 <= s <= k):
        return skipped("ck-rs", params, "endpoints must lie in [1, k]")
    spec = zero_one()
    sign = (-1) ** (r + s)
    sub = []
    lhs1 = sign * negative_moment(2 * n, 2 * r - 2, 2 * s - 2, 2 * k - 1, spec)
    rhs1 = MultiPoly.const(paths.count(paths.alt_sequences(2 * n + 1, k, endpoints=(r, s))))
    sub.append(check_values("ck-rs", params, lhs1, rhs1))
    lhs2 = sign * negative_moment(2 * n - 1, 2 * r - 2, 2 * s - 1, 2 * k - 1, spec)
    rhs2 = MultiPoly.const(paths.count(paths.alt_sequences(2 * n, k, endpoints=(r, s))))
    sub.append(check_values("ck-rs", params, lhs2, rhs2))
    return _combine("ck-rs", params, sub)


def check_connection1(n: int, k: int) -> IdentityCheck:
    """Special-weight moments as row sums of the doubled-bound Dyck matrix."""
    params = {"n": n, "k": k}
    lhs = bounded_moment(n, 0, 0, k, b_special(k))
    for i, u in enumerate(moment_vectors(2 * k + 1, zero_one(), 0, n + 1)):
        if i == n + 1:
            rhs = sum((c for c in u), MultiPoly.zero())
    return check_values("connection1", params, lhs, rhs)


def check_connection2(n: int, k: int) -> IdentityCheck:
    """Negative moments of the special weights reversed at k,
    ``b_special(k).reversed(k)``, as alternating counts."""
    params = {"n": n, "k": k}
    spec = b_special(k).reversed(k)   # b_special rejects k < 0 first
    if n < 0:
        return skipped("connection2", params, "n must be nonnegative")
    d, vecs = adjugate_vectors(k, spec, 0, n)
    lhs = (-1) ** (k * n) * over_power(vecs[n][0], d, n)
    rhs = MultiPoly.const(paths.count_alt(n, k + 1))
    return check_values("connection2", params, lhs, rhs)


# -- peak-valley closed forms -------------------------------------------------------

def _v_ratio(r: int, s: int) -> MultiPoly:
    """(V_0 ... V_s) / (V_0 ... V_{r-1}) as a Laurent monomial."""
    mono = MultiPoly.const(1)
    for t in range(0, s + 1):
        mono = mono * MultiPoly.variable("V", t)
    for t in range(0, r):
        mono = mono * MultiPoly.variable("V", t, -1)
    return mono


@lru_cache(maxsize=None)
def _pinned_pv3_gf(r: int, s: int, bound: int, unit_weights: bool) -> RatFunc:
    """The unreduced ``negative_moment_gf`` of the pinned 3-PV moments,
    under ``one_one()`` or ``v_inverse()``.  A ``pv3-rs`` grid's tuples that
    differ only in n share it.  The key holds integers and a flag set in
    this module, never a caller's ``WeightSpec``: specs compare by name."""
    spec = one_one() if unit_weights else v_inverse()
    return negative_moment_gf(r, s, bound, spec, reduce=False)


def _pinned_pv3_moment(n: int, r: int, s: int, bound: int, unit_weights: bool) -> Value:
    """``negative_moment(n, r, s, bound, spec)`` for the spec named by the flag."""
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    return series_expand(_pinned_pv3_gf(r, s, bound, unit_weights), n + 1)[n]


def pv_closed_forms(which: str, n: int, k: int,
                    r: int = 0, s: int = 0) -> Tuple[Value, Value]:
    """Both sides of a peak-valley moment identity; the caller asserts equality.

    The left side is the negative moment computed from the closed-form
    machinery, the right side a brute-force weighted sequence count.
    Boundary conventions at n = 1 follow the (r, s)-pinned sets, which is
    what the inverse-matrix expansion actually produces.  The weighted-Alt
    pair is stated on the weights ``av_lambda().reversed(2k-1)``.
    """
    if which == "2PV":
        lhs = negative_moment(2 * n, 0, 0, 2 * k - 1, dyck_v())
        total = MultiPoly.zero()
        for seq in paths.pv_sequences(2, 2 * n - 1, 2 * k - 1):
            total = total + paths.wt_seq_v(seq)
        return lhs, MultiPoly.variable("V", 0) * total
    if which == "3PV":
        lhs = negative_moment(n, 0, 0, 3 * k - 1, v_inverse())
        total = MultiPoly.zero()
        for seq in paths.pv_sequences(3, n - 1, 3 * k - 1, r=0, s=0):
            total = total + paths.wt_seq_v(seq)
        return lhs, MultiPoly.variable("V", 0) * total
    if which == "3PV-modified":
        lhs = negative_moment(n, 0, 0, 3 * k, v_inverse())
        total = MultiPoly.zero()
        for seq in paths.pv_sequences(3, n - 1, 3 * k, modified=True, r=0, s=0):
            total = total + paths.wt_seq_v(seq)
        sign = -1 if n % 2 else 1
        return lhs, sign * MultiPoly.variable("V", 0) * total
    if which == "3PV-rs":
        bound = 3 * k - 1
        lhs = _pinned_pv3_moment(n, r, s, bound, unit_weights=False)
        total = MultiPoly.zero()
        for seq in paths.pv_sequences(3, n - 1, bound, r=r, s=s):
            total = total + paths.wt_seq_v(seq)
        sign = -1 if (r // 3 + s // 3) % 2 else 1
        return lhs, sign * _v_ratio(r, s) * total
    if which == "3PV-modified-rs":
        bound = 3 * k
        lhs = _pinned_pv3_moment(n, r, s, bound, unit_weights=False)
        total = MultiPoly.zero()
        for seq in paths.pv_sequences(3, n - 1, bound, modified=True, r=r, s=s):
            total = total + paths.wt_seq_v(seq)
        sign = -1 if ((r + 1) // 3 + (s + 1) // 3 + n) % 2 else 1
        return lhs, sign * _v_ratio(r, s) * total
    if which == "weighted-Alt":
        lhs = negative_moment(2 * n, 0, 0, 2 * k - 1, av_lambda().reversed(2 * k - 1))
        total = MultiPoly.zero()
        for seq in paths.alt_sequences(2 * n - 1, k):
            total = total + paths.wt_seq_av(seq)
        return lhs, MultiPoly.variable("A", k) * total
    raise ValueError(f"unknown identity {which!r}")


# -- wrappers over the peak-valley closed forms ------------------------------------------

def check_pv2(n: int, k: int) -> IdentityCheck:
    params = {"n": n, "k": k}
    _require_negative_index(n, k, 1)
    sub = []
    lhs, rhs = pv_closed_forms("2PV", n, k)
    sub.append(check_values("pv2", params, lhs, rhs))
    lhs, rhs = pv_closed_forms("weighted-Alt", n, k)
    sub.append(check_values("pv2", params, lhs, rhs))
    return _combine("pv2", params, sub)


def check_pv3a(n: int, k: int) -> IdentityCheck:
    params = {"n": n, "k": k}
    _require_negative_index(n, k, 1)
    lhs, rhs = pv_closed_forms("3PV", n, k)
    return check_values("pv3a", params, lhs, rhs)


def check_pv3b(n: int, k: int) -> IdentityCheck:
    params = {"n": n, "k": k}
    _require_negative_index(n, k, 0)
    lhs, rhs = pv_closed_forms("3PV-modified", n, k)
    return check_values("pv3b", params, lhs, rhs)


def check_pv3_rs(n: int, k: int, r: int, s: int) -> IdentityCheck:
    """Endpoint-pinned 3-PV identities at both bounds plus their unit-weight
    sign corollaries."""
    params = {"n": n, "k": k, "r": r, "s": s}
    sub = []
    if 0 <= r <= 3 * k - 1 and 0 <= s <= 3 * k - 1:
        lhs, rhs = pv_closed_forms("3PV-rs", n, k, r, s)
        sub.append(check_values("pv3-rs", params, lhs, rhs))
        mu = _pinned_pv3_moment(n, r, s, 3 * k - 1, unit_weights=True)
        count = paths.count(paths.pv_sequences(3, n - 1, 3 * k - 1, r=r, s=s))
        sign = (-1) ** (r // 3 + s // 3 + r + s + n)
        sub.append(check_values("pv3-rs", params, mu, MultiPoly.const(sign * count)))
    if 0 <= r <= 3 * k and 0 <= s <= 3 * k:
        lhs, rhs = pv_closed_forms("3PV-modified-rs", n, k, r, s)
        sub.append(check_values("pv3-rs", params, lhs, rhs))
        mu = _pinned_pv3_moment(n, r, s, 3 * k, unit_weights=True)
        count = paths.count(paths.pv_sequences(3, n - 1, 3 * k, modified=True, r=r, s=s))
        sign = (-1) ** ((r + 1) // 3 + (s + 1) // 3 + r + s)
        sub.append(check_values("pv3-rs", params, mu, MultiPoly.const(sign * count)))
    if not sub:
        return skipped("pv3-rs", params, "endpoints exceed both bounds")
    return _combine("pv3-rs", params, sub)


# -- inverse-formula checks ----------------------------------------------------------

def check_usmani(k: int) -> IdentityCheck:
    """A N = det(A) I for the continuant numerator matrix N, fully symbolic."""
    params = {"k": k}
    spec = symbolic()
    A = transfer_matrix(k, spec)
    N, det = usmani_inverse(k, spec)
    prod = A * N
    for i in range(k + 1):
        for j in range(k + 1):
            if prod[i, j] != (det if i == j else MultiPoly.zero()):
                return IdentityCheck("usmani", params, "FAIL",
                                     witness=f"entry ({i},{j}) = {prod[i, j]}")
    return IdentityCheck("usmani", params, "PASS")


def check_vv_inverse(k: int) -> IdentityCheck:
    """Closed-form V-weight inverse against the continuant inverse."""
    params = {"k": k}
    if k % 3 == 1:
        return skipped("vv-inv", params, "k = 1 (mod 3): matrix singular")
    closed = v_inverse_closed_form(k)
    N, det = usmani_inverse(k, v_inverse())
    for i in range(k + 1):
        for j in range(k + 1):
            if closed[i, j] * det != N[i, j]:
                return IdentityCheck("vv-inv", params, "FAIL",
                                     witness=f"entry ({i},{j}) differs")
    A = transfer_matrix(k, v_inverse())
    prod = A * closed
    for i in range(k + 1):
        for j in range(k + 1):
            got = prod[i, j]
            if got != MultiPoly.const(1 if i == j else 0):
                return IdentityCheck("vv-inv", params, "FAIL",
                                     witness=f"product entry ({i},{j}) = {got}")
    return IdentityCheck("vv-inv", params, "PASS")


def check_inverse_minor_identity(size: int, seed: int = 0) -> IdentityCheck:
    """Minor-complement identity between a matrix and its inverse.

    [A^{-1}]_{I,J} = (-1)^{sum I + sum J} [A]_{J', I'} / det(A) over all
    index pairs, exercised on a seeded random rational matrix and on the
    symbolic transfer matrix.
    """
    import itertools
    import random

    params = {"size": size, "seed": seed}
    rng = random.Random(seed)
    while True:
        data = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(size)] for _ in range(size)]
        M = Matrix(data)
        det = determinant(M)
        if not det.is_zero():
            break
    matrices = [M]
    if size <= 3:
        matrices.append(transfer_matrix(size - 1, symbolic()))
    from .matrix import matrix_inverse, minor
    for A in matrices:
        det = determinant(A)
        inv = matrix_inverse(A)
        full = list(range(size))
        for t in range(0, size + 1):
            for I in itertools.combinations(full, t):
                for J in itertools.combinations(full, t):
                    lhs = determinant(Matrix(
                        [[inv[i, j] for j in J] for i in I])) if t else RatFunc(1)
                    Ic = [i for i in full if i not in I]
                    Jc = [j for j in full if j not in J]
                    rhs_minor = minor(A, Jc, Ic)
                    sign = (-1) ** (sum(I) + sum(J))
                    rhs = RatFunc(sign * rhs_minor, det)
                    if _as_ratfunc(lhs) != rhs:
                        return IdentityCheck(
                            "inverse-minor", params, "FAIL",
                            witness=f"I={I} J={J}")
    return IdentityCheck("inverse-minor", params, "PASS")


# -- Schroeder side -----------------------------------------------------------------

def sigma_negative_oracle(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """Brute-force side: 1/b0 times the reciprocal-weight sum over paths
    to (2(n-1), 0) of height at most k."""
    rec = laurent_reciprocal(spec)
    total = MultiPoly.zero()
    for p in paths.schroeder_paths(2 * (n - 1), k):
        total = total + paths.wt_schroeder(p, rec.b, rec.a)
    return spec.b(0).unit_inverse() * total


def kamioka_moment(p: int, spec: WeightSpec) -> MultiPoly:
    """Unbounded Schroeder moment L(x^p) for any integer p, by stabilization.

    A path to (2n, 0) never exceeds height n, so the bound 2n is safely
    stabilized for the forward side; the backward side is the oracle's
    reciprocal-weight sum over Sch_{2n} with n = -p - 1.
    """
    if p >= 0:
        return sigma_moment(p, max(2 * p, 1), spec)
    return sigma_negative_oracle(-p, max(-2 * p - 2, 1), spec)


def check_sigma(n: int, k: int) -> IdentityCheck:
    """Backward Schroeder moments: symbolic identity plus count reciprocity."""
    params = {"n": n, "k": k}
    _require_negative_index(n, k, 0)
    sub = []
    syms = laurent_symbolic()
    sub.append(check_values("sigma", params, sigma_negative(n, k, syms),
                            sigma_negative_oracle(n, k, syms)))
    lhs, rhs = schroeder_count_reciprocity(n, k)
    sub.append(check_values("sigma", params, lhs, rhs))
    return _combine("sigma", params, sub)
