"""Moment engine against the path oracles, the generating-function oracle
of gf_oracle.py and sympy."""

from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negmom import poly as P
from negmom import ratfunc, reciprocity
from negmom import weights as W
from negmom.matrix import determinant
from negmom.moments import (
    IllDefinedError,
    adjugate_vectors,
    bounded_moment,
    forward_moments,
    moment_vectors,
    negative_moment,
    negative_moments,
    orth_poly,
    transfer_matrix,
    usmani_inverse,
    v_inverse_closed_form,
    well_defined,
)
from negmom.paths import motzkin_factors, motzkin_paths, pv_sequences, seq_v_factors, weight_sum
from negmom.poly import MultiPoly
from negmom.ratfunc import RatFunc, series_expand, x_coeffs
from negmom.reciprocity import check_pv2, check_pv3a, check_pv3b
from gf_oracle import (
    gf_series,
    inverted_poly,
    moment_gf,
    negative_cf,
    negative_moment_gf,
    reverse_gf,
    viennot_cf,
)
from test_matrix import adjugate

SYM = W.symbolic()
Z1 = W.zero_one()
ONES = W.one_one()


def oracle_moment(n, r, s, k, spec):
    return weight_sum(motzkin_paths(n, r, s, k), lambda p: motzkin_factors(p, r),
                      lambda f: getattr(spec, f[0])(f[1]))


def test_transfer_matrix_shape():
    A = transfer_matrix(1, SYM)
    assert A[0, 0] == P.b(0) and A[0, 1] == MultiPoly.const(1)
    assert A[1, 0] == P.lam(1) and A[1, 1] == P.b(1)
    assert transfer_matrix(0, SYM)[0, 0] == P.b(0)
    A2 = transfer_matrix(2, ONES)
    assert A2[2, 1] == MultiPoly.const(1)


def test_bounded_moment_base_cases():
    assert bounded_moment(0, 1, 1, 2, SYM) == 1
    assert bounded_moment(0, 1, 2, 2, SYM).is_zero()
    assert bounded_moment(2, 0, 0, 3, SYM) == P.b(0) ** 2 + P.lam(1)


def test_bounded_dyck_counts():
    seq = [u[0] for u in moment_vectors(3, Z1, 0, 8)]
    assert [seq[2 * n].as_fraction() for n in range(1, 5)] == [1, 2, 5, 13]


def test_oracle_equivalence_symbolic():
    for k in range(0, 3):
        for n in range(0, 6):
            for r in range(k + 1):
                for s in range(k + 1):
                    assert bounded_moment(n, r, s, k, SYM) == \
                        oracle_moment(n, r, s, k, SYM), (n, r, s, k)


def test_bounded_moment_error_order():
    # n < 0 first, then the end height, then the start height
    for bad in (-1, 9):
        with pytest.raises(ValueError, match="^use negative_moment for negative indices$"):
            bounded_moment(-1, bad, bad, 2, SYM)
        with pytest.raises(IndexError, match=rf"^end height {bad} outside \[0, 2\]$"):
            bounded_moment(1, bad, bad, 2, SYM)
        with pytest.raises(IndexError, match=rf"^start height {bad} outside \[0, 2\]$"):
            bounded_moment(1, bad, 1, 2, SYM)
    with pytest.raises(ValueError, match="^use negative_moment for negative indices$"):
        forward_moments(-1, 9, 9, 2, SYM)
    with pytest.raises(IndexError, match=r"^end height -1 outside \[0, 2\]$"):
        forward_moments(3, 0, -1, 2, SYM)


class _ProbeB(MultiPoly):
    """A weight b_j that logs j each time a row entry j is formed (u_j b_j):
    as a subclass on the right of ``*``, its ``__rmul__`` runs first."""
    __slots__ = ("height", "log")

    def __rmul__(self, other):
        self.log.append(self.height)
        return MultiPoly.__mul__(self, other)


def _formed_heights(k, r, n_max, s):
    """[sorted heights formed at step n for n = 1..n_max] and the rows."""
    log = []

    def b(i):
        p = _ProbeB.variable("b", i)
        p.height, p.log = i, log
        return p

    rows = moment_vectors(k, W.WeightSpec("probe", b, SYM.lam), r, n_max, s)
    formed, out = [], [next(rows)]
    for _ in range(n_max):
        log.clear()
        out.append(next(rows))
        formed.append(sorted(log))
    return formed, out


@pytest.mark.parametrize("k, r, s, n_max", [
    (6, 0, 0, 5), (6, 1, 5, 7), (8, 7, 2, 6), (3, 0, 3, 2), (5, 2, 2, 12), (4, 0, 4, 3),
])
def test_forward_steps_form_only_the_light_cone(k, r, s, n_max):
    # step n forms entry j only when |j - s| <= n_max - n (it can still reach
    # s) and |j - r| <= n (it is not zero anyway); entry s is exact throughout
    formed, rows = _formed_heights(k, r, n_max, s)
    whole_formed, whole = _formed_heights(k, r, n_max, None)
    for n in range(1, n_max + 1):
        left = n_max - n
        assert formed[n - 1] == [j for j in range(k + 1)
                                 if abs(j - s) <= left and abs(j - r) <= n], n
        # whole rows, for the callers that sum them, form the cone of r only
        assert whole_formed[n - 1] == [j for j in range(k + 1) if abs(j - r) <= n], n
    assert [u[s] for u in rows] == [u[s] for u in whole]
    assert all(u[j] == oracle_moment(n, r, j, k, SYM)
               for n, u in enumerate(whole) if n <= 6 for j in range(k + 1))


def test_orth_poly_recurrence():
    assert orth_poly(1, SYM) == P.x() - P.b(0)
    assert orth_poly(2, SYM) == (P.x() - P.b(1)) * (P.x() - P.b(0)) - P.lam(1)
    assert orth_poly(0, SYM) == MultiPoly.const(1)
    # inverted polynomial has constant term 1 (monic source)
    assert inverted_poly(3, SYM).coefficient(P.X_VAR, 0) == MultiPoly.const(1)


def test_zeros_of_special_families():
    zl = W.spec("zero", "symbolic")
    for k in range(0, 3):
        assert orth_poly(2 * k + 1, zl).subs({P.X_VAR: 0}).is_zero()
    bsq = W.spec("symbolic", "bsq")
    for k in range(0, 3):
        assert orth_poly(3 * k + 2, bsq).subs({P.X_VAR: 0}).is_zero()


def test_moment_gf_examples():
    assert moment_gf(0, 0, 1, Z1) == RatFunc(1, 1 - P.x() ** 2)
    # the lambda product factor appears in the r > s case
    f = moment_gf(1, 0, 1, SYM)
    assert f.num.coefficient(P.X_VAR, 1) == P.lam(1)


def test_gf_matches_moments_termwise():
    for k in range(0, 3):
        for r in range(k + 1):
            for s in range(k + 1):
                ser = series_expand(moment_gf(r, s, k, SYM), 6)
                for n in range(6):
                    assert ser[n] == bounded_moment(n, r, s, k, SYM)


def test_viennot_cf_equals_gf():
    for k in range(0, 5):
        assert viennot_cf(k, SYM) == moment_gf(0, 0, k, SYM)


def test_well_defined_closed_forms():
    zl = W.spec("zero", "symbolic")
    bsq = W.spec("symbolic", "bsq")
    for k in range(0, 11):
        assert well_defined(k, zl)[0] == (k % 2 == 1)
        assert well_defined(k, bsq)[0] == (k % 3 != 1)
    ok, cert = well_defined(1, ONES)
    assert not ok and cert.is_zero()
    ok, cert = well_defined(2, Z1)
    assert not ok


def test_negative_moment_is_alt_count():
    for k in range(1, 6):
        v = negative_moment(2, 0, 0, 2 * k - 1, Z1)
        assert v.as_fraction() == k
    assert negative_moment(2, 0, 0, 1, Z1).as_fraction() == 1


def _as_rat(v):
    return RatFunc(v) if isinstance(v, MultiPoly) else v


def _dense_inverse_rows(n_max, r, k, spec):
    """[e_r^T A^{-n} for n = 0..n_max] from sympy's dense inverse of A, as
    sympy rows: shares no code with the stepped adj(A) route."""
    sympy = pytest.importorskip("sympy")
    A = transfer_matrix(k, spec)
    inv = sympy.Matrix(k + 1, k + 1, lambda i, j: _to_sympy(sympy, A[i, j])).inv()
    rows = [sympy.eye(k + 1)[r, :]]
    for _ in range(n_max):
        rows.append((rows[-1] * inv).applyfunc(sympy.cancel))
    return rows


def _to_sympy(sympy, v):
    return sympy.parse_expr(v.render().replace("^", "**"))


def _recurrence_route(n, r, s, k, spec):
    """Step the reduced-denominator recurrence backwards to index -n,
    fraction-free: the unreduced pair window / q_d^n at the end."""
    f = moment_gf(r, s, k, spec)
    if f.is_zero():
        return MultiPoly.zero()
    qu = x_coeffs(f.den)
    d = max(qu)
    assert d > 0, "the moment sequence admits no homogeneous recurrence"
    # window holds q_d^i [c_{-i}, ..., c_{d-1-i}] after i steps; den(0) = 1,
    # so the forward window is polynomial
    window = series_expand(f, d)
    qd = qu[d]
    for _ in range(n):
        # homogeneous relation sum_{j=0}^{d} q_j c_{m-j} = 0 defines c_{m-d}
        acc = MultiPoly.zero()
        for j in range(0, d):
            qj = qu.get(j)
            if qj is not None:
                acc = acc - qj * window[d - 1 - j]
        window = [acc] + [w * qd for w in window[:-1]]
    return RatFunc(window[0], qd ** n)


def test_negative_routes_agree():
    # the stepped table (one adj(A) stepping) entry by entry against three
    # oracles that share no code with it: the series of the reversed gf,
    # the recurrence stepped backwards, and sympy's dense inverse of A;
    # r > s (a lam product) included.  Under custom:[1,2], P_3(0) is a
    # non-unit polynomial in b2 and lam, so its backward values are rational
    sympy = pytest.importorskip("sympy")
    n_max = 5
    for spec, kk in ((Z1, 3), (ONES, 2), (W.v_inverse(), 2), (W.v_inverse(), 3),
                     (W.spec("custom:[1,2]", "symbolic"), 2)):
        for r in range(kk + 1):
            dense = _dense_inverse_rows(n_max, r, kk, spec)
            for s in range(kk + 1):
                table = negative_moments(n_max, r, s, kk, spec)
                assert len(table) == n_max
                series = gf_series(negative_moment_gf(r, s, kk, spec), n_max + 1)
                for n in range(1, n_max + 1):
                    assert negative_moment(n, r, s, kk, spec) == table[n - 1]
                    where = (spec.name, kk, n, r, s)
                    assert _as_rat(table[n - 1]) == series[n], where
                    assert _as_rat(table[n - 1]) == \
                        _as_rat(_recurrence_route(n, r, s, kk, spec)), where
                    diff = _to_sympy(sympy, table[n - 1]) - dense[n][s]
                    assert sympy.cancel(diff) == 0, where


# mini-language weights with zeros, rational entries and Laurent weights;
# custom lists continue symbolically past their length
_custom = st.lists(st.sampled_from(["0", "0", "1", "-1", "2", "1/2"]), min_size=1,
                   max_size=4).map(lambda cs: "custom:[" + ",".join(cs) + "]")
_b_exprs = st.sampled_from(["zero", "one", "symbolic", "v-inverse"]) | _custom
_lam_exprs = st.sampled_from(["zero", "one", "symbolic", "dyck-v", "v-inverse"]) | _custom


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forward_moments_match_sympy_matrix_powers(data):
    # derandomized in tier-1 by the conftest profile; the oracle is sympy's
    # (A^n)[r, s], built from the weights alone, sharing no stepping code
    sympy = pytest.importorskip("sympy")
    k = data.draw(st.integers(0, 4), "k")
    n_max = data.draw(st.integers(0, 8), "n_max")
    spec = W.spec(data.draw(_b_exprs, "b"), data.draw(_lam_exprs, "lam"))
    b = [_to_sympy(sympy, spec.b(i)) for i in range(k + 1)]
    lam = [None] + [_to_sympy(sympy, spec.lam(i)) for i in range(1, k + 1)]
    A = sympy.Matrix(k + 1, k + 1, lambda i, j: b[i] if i == j else 1 if j == i + 1
                     else lam[i] if j == i - 1 else 0)
    powers = [sympy.eye(k + 1)]
    for _ in range(n_max):
        powers.append((powers[-1] * A).applyfunc(sympy.expand))
    for r in range(k + 1):
        for s in range(k + 1):
            table = forward_moments(n_max, r, s, k, spec)
            assert len(table) == n_max + 1
            for n, got in enumerate(table):
                diff = _to_sympy(sympy, got) - powers[n][r, s]
                assert sympy.expand(diff) == 0, (spec.name, k, n, r, s)


@lru_cache(maxsize=None)
def _symbolic_table(r, s, k):
    return negative_moments(4, r, s, k, SYM)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stepped_table_specializes_and_matches_the_reversed_gf(data):
    # derandomized in tier-1 by the conftest profile
    k = data.draw(st.integers(0, 3), "k")
    r, s = data.draw(st.integers(0, k), "r"), data.draw(st.integers(0, k), "s")
    spec = W.spec(data.draw(_b_exprs, "b"), data.draw(_lam_exprs, "lam"))
    point = {("b", i): spec.b(i) for i in range(k + 1)}
    point.update({("lam", i): spec.lam(i) for i in range(1, k + 1)})
    ok, cert = well_defined(k, spec)
    assert well_defined(k, SYM)[1].subs(point) == cert   # d specializes
    if not ok:   # IllDefinedError exactly when d specializes to 0
        with pytest.raises(IllDefinedError):
            negative_moments(4, r, s, k, spec)
        with pytest.raises(IllDefinedError):
            negative_moment_gf(r, s, k, spec)
        return
    table = negative_moments(4, r, s, k, spec)
    series = gf_series(negative_moment_gf(r, s, k, spec), 5)
    for n, (got, sym) in enumerate(zip(table, _symbolic_table(r, s, k)), 1):
        got, sym = _as_rat(got), _as_rat(sym)
        assert got == series[n], n
        num, den = sym.num.subs(point), sym.den.subs(point)
        assert not den.is_zero() and num * got.den == got.num * den, n


def test_negative_tables_reduce_without_a_gcd(monkeypatch):
    # each block of det A (all of it, or with lam_2 = 0 the continuants
    # b0 b1 - 1 and b2 b3 b4 b5 - ...) is certified irreducible once
    # (P.irreducible, cached by the block); after that a failed trial
    # division proves a value coprime to the block, so over_power takes no
    # gcd for any value of either table
    gcd, calls = ratfunc.poly_gcd, []
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda *a: calls.append(a) or gcd(*a))
    for lam in ("symbolic", "custom:[1,0,1]"):
        P.irreducible.cache_clear()
        table = negative_moments(6, 0, 0, 5, W.spec("symbolic", lam))
        assert calls == [], lam
        assert all(isinstance(v, RatFunc) for v in table), lam   # every value met a failed division


@st.composite
def _zero_or_monomial_specs(draw):
    """(k, spec), k <= 6: b a numeric or symbolic prefix continued by the
    symbols b_i, and each lam_i zero, a number or c lam_i^(+-1)."""
    k = draw(st.integers(0, 6))
    b = draw(st.lists(st.sampled_from([None, 0, 1, -1, 2, Fraction(1, 2)]), max_size=k + 1))
    lam = draw(st.lists(st.tuples(st.sampled_from([0, 0, 1, -1, 3, Fraction(-1, 3)]),
                                  st.sampled_from([0, 1, -1])), min_size=k, max_size=k))

    def b_fn(i):
        return P.b(i) if i >= len(b) or b[i] is None else MultiPoly.const(b[i])

    def lam_fn(i):
        c, e = lam[i - 1]
        return c * MultiPoly.variable("lam", i, e) if e else MultiPoly.const(c)

    return k, W.WeightSpec(f"b={b},lam={lam}", b_fn, lam_fn)


@settings(max_examples=60, deadline=None)
@given(_zero_or_monomial_specs())
def test_det_splits_into_irreducible_blocks_at_zero_lams(k_spec):
    # the blocks that over_power strips one by one: their product is det A,
    # and each one that is not a unit is one irreducible factor (sympy),
    # certified by P.irreducible, so no value reaches over_power's gcds
    sympy = pytest.importorskip("sympy")
    k, spec = k_spec
    assume(well_defined(k, spec)[0])
    blocks, _ = adjugate_vectors(k, spec, 0, 0)
    assert prod(blocks) == determinant(transfer_matrix(k, spec))
    for d in blocks:
        if not d.is_term():
            dh = d.shift_monomial(d.monomial_content(), -1)
            _, factors = sympy.factor_list(_to_sympy(sympy, dh))
            assert sum(m for _, m in factors) == 1, d.render()
            assert P.irreducible(d), d.render()


def test_negative_moments_checks_the_domain():
    assert negative_moments(0, 0, 0, 1, Z1) == []
    with pytest.raises(IllDefinedError):
        negative_moments(3, 0, 0, 2, Z1)


def test_same_spec_name_different_weights_get_their_own_values():
    # WeightSpec compares by name; no cache may confuse two specs that share one
    ones = W.WeightSpec("same", lambda i: MultiPoly.const(1), lambda i: MultiPoly.const(1))
    twos = W.WeightSpec("same", lambda i: MultiPoly.const(2), lambda i: MultiPoly.const(1))
    assert ones == twos
    for spec in (ones, twos, ones):
        for n in (1, 2, 3):
            want = gf_series(negative_moment_gf(0, 0, 2, spec), n + 1)[n]
            assert _as_rat(negative_moment(n, 0, 0, 2, spec)) == want
    assert negative_moment(2, 0, 0, 2, ones) != negative_moment(2, 0, 0, 2, twos)


def test_well_defined_certificate_is_p_k_plus_1_at_zero():
    for spec in (SYM, Z1, ONES, W.v_inverse(), W.spec("symbolic", "bsq"),
                 W.spec("custom:[1,2]", "symbolic")):
        for k in range(6):
            ok, cert = well_defined(k, spec)
            assert cert == orth_poly(k + 1, spec).subs({P.X_VAR: 0}), (spec.name, k)
            assert ok == (not cert.is_zero())


def test_negative_moment_ill_defined():
    with pytest.raises(IllDefinedError):
        negative_moment(1, 0, 0, 2, Z1)
    with pytest.raises(IllDefinedError):
        negative_cf(2, Z1)
    with pytest.raises(IllDefinedError):
        adjugate_vectors(1, ONES, 0, 1)


def test_negative_cf_series():
    g = negative_cf(1, Z1)
    assert [c.as_fraction() for c in series_expand(g, 5)] == [0, 0, 1, 0, 1]
    ser = series_expand(negative_cf(3, Z1), 5)
    assert ser[4].as_fraction() == 5  # alternating sequences of length 3, bound 2


def test_negative_cf_equals_reversed_gf():
    for k in range(0, 4):
        assert negative_cf(k, SYM) == reverse_gf(moment_gf(0, 0, k, SYM))


def test_negative_gf_displayed_forms():
    for k in range(0, 4):
        for r in range(k + 1):
            for s in range(k + 1):
                assert negative_moment_gf(r, s, k, SYM) == \
                    reverse_gf(moment_gf(r, s, k, SYM))


def test_extended_moment_dispatch():
    # mu_j at any integer j: forward for j >= 0, backward below
    assert bounded_moment(0, 0, 0, 3, Z1) == MultiPoly.const(1)
    assert bounded_moment(4, 0, 0, 3, Z1).as_fraction() == 2
    assert negative_moment(2, 0, 0, 3, Z1).as_fraction() == 2


def test_usmani_inverse_symbolic():
    # the continuant inverse against the generic adjugate and determinant,
    # symbolic and numeric, palindromic or not, singular bounds included
    for spec in (SYM, Z1, W.v_inverse(), W.spec("custom:[1,2]", "symbolic"),
                 W.spec("custom:[2,-1,3,1/2,5]", "custom:[1,4,-3,7]"),
                 W.spec("custom:[1,0,1]", "custom:[2,1/3]"),
                 W.spec("custom:[3,1,3]", "custom:[2,2]")):
        for k in range(0, 5):
            A = transfer_matrix(k, spec)
            det = determinant(A)
            assert determinant(transfer_matrix(k, spec.reversed(k))) == det, (spec.name, k)
            if det.is_zero():
                with pytest.raises(IllDefinedError):
                    usmani_inverse(k, spec)
            else:
                assert usmani_inverse(k, spec) == (adjugate(A), det), (spec.name, k)


def test_usmani_singular_certificate():
    with pytest.raises(IllDefinedError, match="transfer matrix singular") as err:
        usmani_inverse(1, ONES)
    assert err.value.certificate.is_zero()


@pytest.mark.parametrize("k", [-1, -2, -3])
def test_negative_bound_is_refused(k):
    # as by transfer_matrix; at -1 and -2 the continuants would give a
    # meaningless (N, det A) and at -3 an IndexError
    for call in (lambda: transfer_matrix(k, SYM), lambda: usmani_inverse(k, SYM),
                 lambda: adjugate_vectors(k, SYM, 0, 1), lambda: negative_moments(2, 0, 0, k, SYM),
                 lambda: negative_moment(1, 0, 0, k, Z1), lambda: v_inverse_closed_form(k)):
        with pytest.raises(ValueError, match=r"^bound k must be nonnegative$"):
            call()


def _products(monkeypatch, call):
    """The number of MultiPoly products ``call()`` forms."""
    count = [0]
    mul = MultiPoly.__mul__

    def counted(p, q):
        count[0] += 1
        return mul(p, q)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    call()
    monkeypatch.undo()
    return count[0]


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_adjugate_written_out_in_quadratic_products(monkeypatch, k):
    # one product t_i s_j per entry on and above the diagonal, and two below
    # it (q <- q lam_i of the column's running product, then q s_i)
    from negmom.moments import _adjugate_factors
    factors = _products(monkeypatch, lambda: _adjugate_factors(k, SYM, ""))
    whole = _products(monkeypatch, lambda: usmani_inverse(k, SYM))
    assert whole - factors == (k + 1) * (k + 2) // 2 + k * (k + 1)


@pytest.mark.parametrize("k", [0, 2, 5, 9])
def test_v_inverse_closed_form_in_quadratic_products(monkeypatch, k):
    # two running prefix products of V_t and V_t^-1, then two products a
    # nonzero entry
    closed = v_inverse_closed_form(k)
    nonzero = sum(not closed[i, j].is_zero() for i in range(k + 1) for j in range(k + 1))
    assert _products(monkeypatch, lambda: v_inverse_closed_form(k)) == 2 * (k + 1) + 2 * nonzero


def test_v_inverse_closed_form_matches():
    for k in (2, 3, 5):
        closed = v_inverse_closed_form(k)
        N, det = usmani_inverse(k, W.v_inverse())
        for i in range(k + 1):
            for j in range(k + 1):
                assert closed[i, j] * det == N[i, j], (k, i, j)
    with pytest.raises(IllDefinedError):
        v_inverse_closed_form(4)


def test_v_inverse_chi_vanishing_pattern():
    # bound 2 (mod 3): rows at residue 2 vanish on and above the diagonal
    closed = v_inverse_closed_form(5)
    for i in range(6):
        for j in range(6):
            if i % 3 == 2 and i <= j:
                assert closed[i, j].is_zero()


def test_pv_closed_forms_examples():
    assert negative_moment(2, 0, 0, 1, W.dyck_v()) == P.V(0) * P.V(1)
    assert check_pv2(1, 1).passed   # so the 2-PV sum is V0*V1 too
    for n in range(1, 4):
        for k in (1, 2):
            # check_pv2 holds the 2-PV and the weighted-Alt pair
            assert check_pv2(n, k).passed, (n, k)
            for check in (check_pv3a, check_pv3b):
                c = check(n, k)
                assert c.passed and c.lhs == c.rhs, (check.__name__, n, k)


def test_pv_rs_reduces_to_plain():
    # endpoint-pinned identity at r = s = 0 against the plain one, n >= 2:
    # the same moment, and the sign +1 times V0 = (V_0..V_s)/(V_0..V_{r-1})
    for n in range(2, 5):
        plain = check_pv3a(n, 1)
        assert plain.lhs == reciprocity._pinned_pv3_moment(n, 0, 0, 2, unit_weights=False)
        pinned_sum = weight_sum(pv_sequences(3, n - 1, 2, r=0, s=0), seq_v_factors)
        assert plain.rhs == reciprocity._v_ratio(0, 0) * pinned_sum
        assert reciprocity.check_pv3_rs(n, 1, 0, 0).passed


def test_pv_hypothesis_violation():
    with pytest.raises(IllDefinedError):
        negative_moment(1, 0, 0, 4, W.v_inverse())  # 4 = 1 (mod 3)
