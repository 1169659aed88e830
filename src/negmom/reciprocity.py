"""Determinant-reciprocity identities between forward and backward moment
grids, with structured pass/fail certificates.

Every check computes both sides exactly from independent routes (closed
forms on one side, brute-force enumeration or a second closed route on
the other) and reports an ``IdentityCheck``.  Rational sides are compared
by cross-multiplication so no reduction of large intermediates is needed;
a failing check carries the first differing monomial as a witness.

A check assumes its parameters lie inside the identity's domain, which
the verify registry (``cli._IDENTITIES``) declares; only what needs the
moments computed first, such as main's d = 0, is SKIPPED from inside.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import paths
from .laurent import schroeder_count_reciprocity, sigma_negative
from .matrix import Matrix, determinant, hankel_determinant, reduced_hankel_determinant
from .moments import (
    IllDefinedError,
    adjugate_vectors,
    bounded_moment,
    forward_moments,
    moment_vectors,
    negative_moment,
    negative_moments,
    transfer_matrix,
    usmani_inverse,
    v_inverse_closed_form,
)
from .poly import Q_VAR, MultiPoly, poly_sum
from .ratfunc import RatFunc, over_power
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
    return v if isinstance(v, RatFunc) else RatFunc(v)


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


def _combine(identity: str, params: Dict[str, object],
             subchecks: Sequence[IdentityCheck]) -> IdentityCheck:
    for sub in subchecks:
        if sub.status == "FAIL":
            return IdentityCheck(identity, params, "FAIL", sub.lhs, sub.rhs,
                                 witness=sub.witness, reason=sub.reason)
    return IdentityCheck(identity, params, "PASS")


# -- moment grids -----------------------------------------------------------------

def _moment_run(bound: int, spec: WeightSpec, start: int, step: int,
                count: int) -> List[Value]:
    """The count moments mu_start, mu_{start+step}, ... (heights 0, 0) at
    the bound: ``forward_moments`` at indices >= 0, ``negative_moments``
    below 0, one stepping each.  Nothing is computed when count is 0, so
    an empty Hankel grid costs nothing."""
    js = range(start, start + step * count, step)
    if not js:
        return []
    lo, hi = min(js), max(js)
    fwd = forward_moments(hi, 0, 0, bound, spec) if hi >= 0 else []
    back = negative_moments(-lo, 0, 0, bound, spec) if lo < 0 else []
    return [fwd[j] if j >= 0 else back[-j - 1] for j in js]


def check_main_reciprocity(n: int, k: int, m: int, spec: WeightSpec) -> IdentityCheck:
    """Forward k x k grid determinant against the lam-power and det-power
    weighted, index-reversed backward m x m grid determinant, as one
    polynomial equality.

    With K = k+m-1 and d = det A, the backward grid is stepped with adj(A)
    of ``spec.reversed(K)`` (reversal keeps det A), so its Hankel
    determinant det_h is d^(mn+m(m-1)) det(mu_{-n-i-j}).  The identity's
    d^(n+2m-2) cancels all of that power but d^j, j = (m-1)(n+m-2).  The
    backward grid is condensed to R = det_h / d^j
    (``reduced_hankel_determinant``), and what is checked is

        lhs prod_{i>k} lam_i^(i-k) = R prod_{i<k} lam_i^(k-i).

    When a pivot of the condensation is zero or one of its divisions is
    inexact, R is not formed, and the cleared equality

        lhs d^j prod_{i>k} lam_i^(i-k) = det_h prod_{i<k} lam_i^(k-i)

    is checked instead.  A FAIL reports the cleared sides and the witness
    of the cleared equality on either path.
    """
    params = {"n": n, "k": k, "m": m, "spec": spec.name}
    ident = "main"
    K = k + m - 1
    try:
        blocks, vecs = adjugate_vectors(K, spec.reversed(K), 0, n + 2 * (m - 1))
    except IllDefinedError:
        return skipped(ident, params, f"P_{K + 1}(0) = 0: backward side undefined")
    lhs = hankel_determinant(_moment_run(K, spec, n + 2 * m - 2, 1, 2 * k - 1))
    rhs_lam = MultiPoly.const(1)
    for i in range(1, K + 1):
        if i > k:
            lhs = lhs * spec.lam(i) ** (i - k)
        elif i < k:
            rhs_lam = rhs_lam * spec.lam(i) ** (k - i)
    c = [u[0] for u in vecs[n:]]
    d = prod(blocks[1:], start=blocks[0])   # det A, which the condensation divides out
    reduced = reduced_hankel_determinant(c, d, n)
    if reduced is not None:
        check = check_values(ident, params, lhs, reduced * rhs_lam)
        if check.passed:
            return check
    dj = d ** ((m - 1) * (n + m - 2))
    det_h = hankel_determinant(c) if reduced is None else reduced * dj
    return check_values(ident, params, lhs * dj, det_h * rhs_lam)


def check_theorem15(n: int, k: int, m: int) -> IdentityCheck:
    """Equality of the two Dyck-count grid determinants at odd bound."""
    params = {"n": n, "k": k, "m": m}
    spec = zero_one()
    bound = 2 * k + 2 * m - 1
    # the (n, m) = (0, 0) corner starts the forward grid at mu_{-2}
    lhs = hankel_determinant(_moment_run(bound, spec, 2 * n + 4 * m - 2, 2, 2 * k - 1))
    rhs = hankel_determinant(_moment_run(bound, spec, -2 * n, -2, 2 * m - 1))
    return check_values("thm15", params, lhs, rhs)


def check_conjecture50(n: int, k: int, m: int) -> IdentityCheck:
    """Row-sum moment grid against the signed grid of alternating-sequence
    counts."""
    params = {"n": n, "k": k, "m": m}
    K = k + m
    bound = 2 * K - 1
    spec = zero_one()
    # row sums of e_0^T A^j, backward (j < 0) when n + 2m < 1
    js = range(n + 2 * m - 1, n + 2 * m + 2 * k - 2)
    sums: Dict[int, Value] = {}
    if js:
        sums = dict(enumerate(map(poly_sum, moment_vectors(bound, spec, 0, max(js[-1], 0)))))
        if js[0] < 0:
            blocks, vecs = adjugate_vectors(bound, spec, 0, -js[0])
            for t, u in enumerate(vecs[1:], 1):
                sums[-t] = over_power(poly_sum(u), blocks, t)
    lhs = hankel_determinant([sums[j] for j in js])
    rhs = hankel_determinant([paths.count_alt(n + t, K) for t in range(2 * m - 1)])
    sign = (-1) ** ((comb(k, 2) + comb(m, 2)) * (n + 1) % 2)   # n + 1 may be negative
    return check_values("conj50", params, lhs, sign * rhs)


def check_conjecture53(n: int, k: int, m: int) -> IdentityCheck:
    """All-ones-weight grid reciprocity, defined away from k+m = 2 (mod 3)."""
    params = {"n": n, "k": k, "m": m}
    spec, bound = one_one(), k + m - 1
    lhs = hankel_determinant(_moment_run(bound, spec, n + 2 * m - 2, 1, 2 * k - 1))
    rhs = hankel_determinant(_moment_run(bound, spec, -n, -1, 2 * m - 1))
    sign = (-1) ** (n * ((k + m) // 3))
    return check_values("conj53", params, lhs, sign * rhs)


def check_theorem34(n: int, k: int, m: int) -> IdentityCheck:
    """Grid reciprocity for Dyck-path moments with fully symbolic lam; the
    backward grid is taken on ``spec.reversed(2k+2m-1)``, lam_i -> lam_{2k+2m-i}."""
    params = {"n": n, "k": k, "m": m}
    spec = make_spec("zero", "symbolic")
    bound = 2 * k + 2 * m - 1
    lhs = hankel_determinant(_moment_run(bound, spec, 2 * n + 4 * m - 2, 2, 2 * k - 1))
    det_b = hankel_determinant(_moment_run(bound, spec.reversed(bound), -2 * n, -2, 2 * m - 1))
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


def _q_power(t: int) -> MultiPoly:
    return MultiPoly.variable("q", exp=t)


def _q_series(coeffs: List[int]) -> MultiPoly:
    """sum_t coeffs[t] q^t."""
    return MultiPoly({((Q_VAR, t),): c for t, c in enumerate(coeffs)})


def check_rpp_identity(n: int, m: int, k: int, mode: str = "symbolic-VA",
                       trunc: int = 8) -> IdentityCheck:
    """Bounded reverse-plane-partition sums against alternating-sequence
    grid determinants (multivariate, q-specialized, or unbounded mod q^N)."""
    params = {"n": n, "m": m, "k": k, "mode": mode}
    # Hankel entry t weighs the down-first sequences of length 2n+2t+1
    lengths = [2 * n + 2 * t + 1 for t in range(2 * m - 1)]
    seqs = lambda length: paths.alt_sequences(length, k + m, down_first=True)
    if mode == "symbolic-VA":
        lhs = paths.weight_sum(paths.rpp_fillings(n, m, k), lambda T: paths.rpp_factors(T, n))
        rhs = hankel_determinant([paths.weight_sum(seqs(length), paths.seq_av_factors)
                                  for length in lengths])
        return check_values("rpp", params, lhs, rhs)
    if mode == "q":   # q^(entry sum): one factor per object
        lhs = paths.weight_sum(paths.rpp_fillings(n, m, k), lambda T: (paths.rpp_total(T),),
                               _q_power)
        det = hankel_determinant([paths.weight_sum(seqs(length), lambda seq: (sum(seq),),
                                                   _q_power) for length in lengths])
        return check_values("rpp", params, lhs, _q_power(-rpp_prefactor_exponent(n, m)) * det)
    if mode == "q-unbounded":
        expo = rpp_prefactor_exponent(n, m)
        entry_trunc = trunc + expo
        bound = entry_trunc  # entries above the truncation cannot contribute
        lhs_fillings = paths.rpp_fillings(n, m, trunc - 1, max_total=trunc - 1)
        lhs_coeffs = [0] * trunc
        for filling in lhs_fillings:
            lhs_coeffs[paths.rpp_total(filling)] += 1
        dets = [hankel_determinant([_q_series(_alt_q_series(length, bound + extra, entry_trunc))
                                    for length in lengths])
                for extra in (0, 1)]   # stabilization in the entry bound is asserted
        if dets[0] != dets[1]:
            return IdentityCheck("rpp", params, "FAIL",
                                 witness="entry-bound stabilization failed")
        rhs_series = _q_power(-expo) * dets[0]
        rhs_coeffs = [0] * trunc
        for e, coeff in rhs_series.as_univariate(Q_VAR).items():
            if 0 <= e < trunc:
                rhs_coeffs[e] += int(coeff.as_fraction())
        return check_values("rpp", params, _q_series(lhs_coeffs), _q_series(rhs_coeffs))
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
        u = [poly_sum(u[t] * A[t, j] for t in range(2 * k + 2)) for j in range(2 * k + 2)]
    return check_values("alt-transfer", params, poly_sum(u),
                        MultiPoly.const(paths.count_alt(n, k + 1)))


def _signed_reversed_special(n_max: int, k: int) -> List[Value]:
    """[(-1)^(kn) mu_{-n}^{<=k} for n = 0..n_max] on ``b_special(k).reversed(k)``:
    b_0 = (-1)^k, b_i = 2 (-1)^(k-i) and lam_i = -1.  Entry n is the number
    of alternating sequences of length n bounded by k + 1
    (Cigler-Krattenthaler), which connection2 and alt-cf check."""
    table = negative_moments(n_max, 0, 0, k, b_special(k).reversed(k))
    return [MultiPoly.const(1)] + [(-1) ** (k * n) * v for n, v in enumerate(table, 1)]


_ALT_ORDER = 8   # alt-cf checks the counts of lengths n = 1.._ALT_ORDER


def check_alt_cf(k: int) -> IdentityCheck:
    """The alternating counts of lengths 1..8 bounded by k + 1 against the
    signed negative moments of ``b_special(k).reversed(k)``, stepped through
    adj(A).  Those are the coefficients of the continued fraction
    -y/(y - b_0 - lam_1/(y - b_1 - ...)) = -y e_0^T (y - A)^{-1} e_0 at
    y = (-1)^k x (Flajolet 1980), which the tests expand as an oracle."""
    params = {"k": k}
    lhs = _signed_reversed_special(_ALT_ORDER, k)
    return _combine("alt-cf", params, [
        check_values("alt-cf", {**params, "n": n}, lhs[n],
                     MultiPoly.const(paths.count_alt(n, k + 1)))
        for n in range(1, _ALT_ORDER + 1)])


# -- classic count reciprocity ---------------------------------------------------------

def check_ck(n: int, k: int) -> IdentityCheck:
    """Negative even Dyck moments as bounded alternating-sequence counts."""
    params = {"n": n, "k": k}
    lhs = negative_moment(2 * n, 0, 0, 2 * k - 1, zero_one())
    rhs = MultiPoly.const(paths.count_alt(2 * n - 1, k))
    return check_values("ck", params, lhs, rhs)


def check_ck_rs(n: int, k: int, r: int, s: int) -> IdentityCheck:
    """Both endpoint-pinned reciprocity identities for Dyck moments."""
    params = {"n": n, "k": k, "r": r, "s": s}
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
    *_, row = moment_vectors(2 * k + 1, zero_one(), 0, n + 1)
    return check_values("connection1", params, lhs, poly_sum(row))


def check_connection2(n: int, k: int) -> IdentityCheck:
    """Negative moments of the special weights reversed at k,
    ``b_special(k).reversed(k)``, as alternating counts."""
    params = {"n": n, "k": k}
    lhs = _signed_reversed_special(n, k)[n]
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


@lru_cache(maxsize=4)
def _pinned_pv3_row(n: int, r: int, bound: int,
                    unit_weights: bool) -> Tuple[Tuple[MultiPoly, ...], List[MultiPoly]]:
    """(blocks of det A, e_r^T adj(A)^n) at the bound under ``one_one()`` or
    ``v_inverse()``: a ``pv3-rs`` grid's tuples that differ only in s share
    it.  A tuple reads at most four rows (two bounds, two weight tables) and
    the verify grid varies s fastest, so four entries lose no hit.  The key
    holds integers and a flag set in this module, never a caller's
    ``WeightSpec``: specs compare by name."""
    blocks, vecs = adjugate_vectors(bound, one_one() if unit_weights else v_inverse(), r, n)
    return blocks, vecs[n]


def _pinned_pv3_moment(n: int, r: int, s: int, bound: int, unit_weights: bool) -> Value:
    """``negative_moment(n, r, s, bound, spec)`` for the spec named by the flag."""
    blocks, row = _pinned_pv3_row(n, r, bound, unit_weights)
    return over_power(row[s], blocks, n)


def _v_sum(seqs) -> MultiPoly:
    return paths.weight_sum(seqs, paths.seq_v_factors)


# Each peak-valley check sets a negative moment from the closed-form
# machinery against a brute-force weighted sequence sum.  Boundary
# conventions at n = 1 follow the (r, s)-pinned sets, which is what the
# inverse-matrix expansion actually produces.

def check_pv2(n: int, k: int) -> IdentityCheck:
    """The 2-PV moments, and the weighted-Alt pair on the weights
    ``av_lambda().reversed(2k-1)``."""
    params = {"n": n, "k": k}
    lhs = negative_moment(2 * n, 0, 0, 2 * k - 1, dyck_v())
    rhs = MultiPoly.variable("V", 0) * _v_sum(paths.pv_sequences(2, 2 * n - 1, 2 * k - 1))
    sub = [check_values("pv2", params, lhs, rhs)]
    lhs = negative_moment(2 * n, 0, 0, 2 * k - 1, av_lambda().reversed(2 * k - 1))
    total = paths.weight_sum(paths.alt_sequences(2 * n - 1, k), paths.seq_av_factors)
    sub.append(check_values("pv2", params, lhs, MultiPoly.variable("A", k) * total))
    return _combine("pv2", params, sub)


def check_pv3a(n: int, k: int) -> IdentityCheck:
    params = {"n": n, "k": k}
    lhs = negative_moment(n, 0, 0, 3 * k - 1, v_inverse())
    rhs = MultiPoly.variable("V", 0) * _v_sum(paths.pv_sequences(3, n - 1, 3 * k - 1, r=0, s=0))
    return check_values("pv3a", params, lhs, rhs)


def check_pv3b(n: int, k: int) -> IdentityCheck:
    params = {"n": n, "k": k}
    lhs = negative_moment(n, 0, 0, 3 * k, v_inverse())
    total = _v_sum(paths.pv_sequences(3, n - 1, 3 * k, modified=True, r=0, s=0))
    return check_values("pv3b", params, lhs, (-1) ** n * MultiPoly.variable("V", 0) * total)


def check_pv3_rs(n: int, k: int, r: int, s: int) -> IdentityCheck:
    """Endpoint-pinned 3-PV identities at both bounds, 3k-1 plain and 3k
    modified, plus their unit-weight sign corollaries."""
    params = {"n": n, "k": k, "r": r, "s": s}
    sub = []
    for modified in (0, 1):
        bound = 3 * k - 1 + modified
        if not (0 <= r <= bound and 0 <= s <= bound):
            continue
        e = (r + modified) // 3 + (s + modified) // 3 + modified * n
        seqs = lambda: paths.pv_sequences(3, n - 1, bound, modified=bool(modified), r=r, s=s)
        lhs = _pinned_pv3_moment(n, r, s, bound, unit_weights=False)
        rhs = (-1) ** e * _v_ratio(r, s) * _v_sum(seqs())
        sub.append(check_values("pv3-rs", params, lhs, rhs))
        # corollary: under the unit weights the V-weighted sum is a signed count
        mu = _pinned_pv3_moment(n, r, s, bound, unit_weights=True)
        count = (-1) ** (e + r + s + n) * paths.count(seqs())
        sub.append(check_values("pv3-rs", params, mu, MultiPoly.const(count)))
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


# -- Schroeder side -----------------------------------------------------------------

def sigma_negative_oracle(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """Brute-force side: 1/b0 times the reciprocal-weight sum over paths
    to (2(n-1), 0) of height at most k."""
    rec = laurent_reciprocal(spec)
    total = paths.weight_sum(paths.schroeder_paths(2 * (n - 1), k), paths.schroeder_factors,
                             lambda f: getattr(rec, f[0])(f[1]))
    return spec.b(0).unit_inverse() * total


def check_sigma(n: int, k: int) -> IdentityCheck:
    """Backward Schroeder moments: symbolic identity plus count reciprocity."""
    params = {"n": n, "k": k}
    sub = []
    syms = laurent_symbolic()
    sub.append(check_values("sigma", params, sigma_negative(n, k, syms),
                            sigma_negative_oracle(n, k, syms)))
    lhs, rhs = schroeder_count_reciprocity(n, k)
    sub.append(check_values("sigma", params, lhs, rhs))
    return _combine("sigma", params, sub)
