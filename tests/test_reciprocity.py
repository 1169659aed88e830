"""Identity checks on small grids; the acceptance suite runs the full ones."""

from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negmom import paths, reciprocity
from negmom import weights as W
from negmom.cli import run_check
from negmom.matrix import hankel_determinant, reduced_hankel_determinant
from negmom.moments import (
    IllDefinedError,
    adjugate_vectors,
    bounded_moment,
    negative_moment,
    negative_moments,
    well_defined,
)
from negmom.poly import MultiPoly
from negmom.ratfunc import RatFunc
from negmom.reciprocity import (
    alt_transfer_matrix,
    b_matrix,
    check_alt_cf,
    check_alt_transfer_counts,
    check_ck,
    check_ck_rs,
    check_conjecture50,
    check_dyck_motzkin_connection,
    check_connection1,
    check_connection2,
    check_main_reciprocity,
    check_pv2,
    check_pv3_rs,
    check_pv3a,
    check_pv3b,
    check_rpp_identity,
    check_sigma,
    check_special_dets,
    check_theorem15,
    check_theorem34,
    check_usmani,
    check_values,
    check_vv_inverse,
    reversed_special_matrix,
    rpp_prefactor_exponent,
)
from gf_oracle import cf_eval, gf_series


def test_check_values_witness():
    c = check_values("demo", {}, MultiPoly.const(1), MultiPoly.const(2))
    assert c.status == "FAIL" and c.witness == "-1"
    c = check_values("demo", {}, MultiPoly.const(3), MultiPoly.const(3))
    assert c.passed


def test_ck_small():
    for n in range(1, 4):
        for k in range(1, 4):
            assert check_ck(n, k).passed


def test_ck_rs_small():
    for n in range(1, 3):
        for k in range(1, 4):
            for r in range(1, k + 1):
                for s in range(1, k + 1):
                    assert check_ck_rs(n, k, r, s).passed, (n, k, r, s)
    c = run_check("ck-rs", {"n": 1, "k": 2, "r": 0, "s": 1})
    assert (c.status, c.reason) == ("SKIPPED", "endpoints must lie in [1, k]")


def test_det_moment_grid_edges():
    # an empty grid (k = 0 forward, m = 0 backward) is 1 and computes no moment
    assert hankel_determinant([]) == MultiPoly.const(1)
    assert reciprocity._moment_run(-1, W.symbolic(), 2, 1, 0) == []
    with pytest.raises(IllDefinedError):
        negative_moments(3, 0, 0, 2, W.zero_one())  # even bound: no backward grid


def test_det_moment_grid_matches_brute():
    # 1x1 grids are plain moments: the forward mu_{n+2m-2} of main at bound k+m-1
    sym = W.symbolic()
    assert check_main_reciprocity(3, 1, 1, sym).lhs == bounded_moment(3, 0, 0, 1, sym)
    # a run across index 0 joins backward and forward moments
    z1 = W.zero_one()
    assert reciprocity._moment_run(3, z1, -4, 2, 5) == \
        [negative_moment(j, 0, 0, 3, z1) for j in (4, 2)] + \
        [bounded_moment(j, 0, 0, 3, z1) for j in (0, 2, 4)]


def test_main_reciprocity_symbolic_small():
    sym = W.symbolic()
    for (k, m) in ((1, 1), (1, 2), (2, 1), (1, 3)):
        for n in (1, 2):
            assert check_main_reciprocity(n, k, m, sym).passed, (n, k, m)


def test_main_reciprocity_specialized():
    for spec in (W.zero_one(), W.one_one()):
        for n in (1, 2):
            for k in (1, 2):
                for m in (1, 2):
                    c = check_main_reciprocity(n, k, m, spec)
                    assert c.status in ("PASS", "SKIPPED")


def _custom(vals):
    return "custom:[" + ",".join(map(str, vals)) + "]"


_NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@pytest.mark.parametrize("nkm", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 2, 2), (1, 1, 3)])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_main_reciprocity_non_palindromic_numeric_spec(nkm, data):
    # numbers carry no index, so only reversing the weights themselves
    # reverses a numeric spec
    K = nkm[1] + nkm[2] - 1
    b = data.draw(st.lists(_NONZERO, min_size=K + 1, max_size=K + 1), label="b")
    lam = data.draw(st.lists(_NONZERO, min_size=K, max_size=K), label="lam")
    assume(b != b[::-1] or lam != lam[::-1])
    spec = W.spec(_custom(b), _custom(lam))
    assume(well_defined(K, spec)[0])
    assert check_main_reciprocity(*nkm, spec).status == "PASS"


def _backward_grid(n, k, m, spec):
    """d and the entries c_n..c_{n+2m-2} of main's backward grid."""
    K = k + m - 1
    blocks, vecs = reciprocity.adjugate_vectors(K, spec.reversed(K), 0, n + 2 * (m - 1))
    return prod(blocks), [u[0] for u in vecs[n:]]


def _cleared_main(n, k, m, spec):
    """main checked as lhs d^j prod = det_h prod, with no condensation: the
    oracle for the status, the sides and the witness of a FAIL."""
    K = k + m - 1
    d, c = _backward_grid(n, k, m, spec)
    lhs = hankel_determinant(reciprocity._moment_run(K, spec, n + 2 * m - 2, 1, 2 * k - 1))
    lhs = lhs * d ** ((m - 1) * (n + m - 2))
    rhs = hankel_determinant(c)
    for i in range(1, K + 1):
        if i > k:
            lhs = lhs * spec.lam(i) ** (i - k)
        elif i < k:
            rhs = rhs * spec.lam(i) ** (k - i)
    return check_values("main", {"n": n, "k": k, "m": m, "spec": spec.name}, lhs, rhs)


def _main_and_path(n, k, m, spec, monkeypatch):
    """check_main_reciprocity and whether its backward grid was condensed."""
    seen = []

    def spy(c, d, start):
        seen.append(reduced_hankel_determinant(c, d, start))
        return seen[-1]
    monkeypatch.setattr(reciprocity, "reduced_hankel_determinant", spy)
    check = check_main_reciprocity(n, k, m, spec)
    assert len(seen) == 1
    return check, seen[0] is not None


def _agrees_with_cleared(check, n, k, m, spec):
    want = _cleared_main(n, k, m, spec)
    assert (check.status, check.witness) == (want.status, want.witness)
    if want.status == "FAIL":
        assert (check.lhs, check.rhs) == (want.lhs, want.rhs)


_SMALL_KM = [(k, m) for m in (1, 2, 3) for k in (1, 2, 3) if k + m - 1 <= 3]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("km", _SMALL_KM)
def test_reduced_backward_grid_is_det_h_over_d_power_symbolic(n, km):
    # the condensed backward grid times d^j is the Hankel determinant, and
    # on symbols no pivot is zero and every division is exact
    k, m = km
    d, c = _backward_grid(n, k, m, W.symbolic())
    reduced = reduced_hankel_determinant(c, d, n)
    assert reduced is not None
    assert reduced * d ** ((m - 1) * (n + m - 2)) == hankel_determinant(c)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(1, 2), km=st.sampled_from(_SMALL_KM), data=st.data())
def test_reduced_backward_grid_is_det_h_over_d_power_numeric(n, km, data):
    k, m = km
    K = k + m - 1
    b = data.draw(st.lists(_NONZERO, min_size=K + 1, max_size=K + 1), label="b")
    lam = data.draw(st.lists(_NONZERO, min_size=K, max_size=K), label="lam")
    spec = W.spec(_custom(b), _custom(lam))
    assume(well_defined(K, spec)[0])
    d, c = _backward_grid(n, k, m, spec)
    reduced = reduced_hankel_determinant(c, d, n)
    # a division by a nonzero number is exact: only a zero pivot stops it
    assert reduced is None or reduced * d ** ((m - 1) * (n + m - 2)) == hankel_determinant(c)


def test_main_zero_one_condenses_at_even_n_and_falls_back_at_odd_n(monkeypatch):
    # at odd n, zero-one's c_{n+2} is 0: the level-3 pivot
    for n in (1, 2, 3, 4):
        for k in (1, 3):
            check, condensed = _main_and_path(n, k, 3, W.zero_one(), monkeypatch)
            assert check.passed and condensed == (n % 2 == 0), (n, k)
            _agrees_with_cleared(check, n, k, 3, W.zero_one())


def test_main_inexact_division_falls_back_to_the_cleared_equality(monkeypatch):
    # a mutant d + 1 that does not divide the level-2 minors
    adjugate_vectors_ = reciprocity.adjugate_vectors

    def shifted_d(*args):
        blocks, vecs = adjugate_vectors_(*args)
        return (prod(blocks) + 1,), vecs
    monkeypatch.setattr(reciprocity, "adjugate_vectors", shifted_d)
    for nkm in ((1, 1, 2), (2, 1, 2), (1, 1, 3)):
        check, condensed = _main_and_path(*nkm, W.symbolic(), monkeypatch)
        assert not condensed and check.status == "FAIL", nkm
        _agrees_with_cleared(check, *nkm, W.symbolic())


def test_main_fail_on_the_condensed_path_has_the_cleared_witness(monkeypatch):
    # a mutant stepping spec instead of spec.reversed(K): reversing twice
    # at one bound is the identity.  Its grid still condenses, and the FAIL
    # reports the sides and witness of lhs d^j prod - det_h prod
    adjugate_vectors_ = reciprocity.adjugate_vectors
    monkeypatch.setattr(reciprocity, "adjugate_vectors",
                        lambda K, spec, *a: adjugate_vectors_(K, spec.reversed(K), *a))
    for nkm in ((1, 1, 2), (1, 2, 2), (1, 1, 3)):
        check, condensed = _main_and_path(*nkm, W.symbolic(), monkeypatch)
        assert condensed and check.status == "FAIL", nkm
        _agrees_with_cleared(check, *nkm, W.symbolic())


def test_reversed_spec_reverses_indices():
    spec = W.spec("custom:[2,3,5]", "symbolic")
    rev = spec.reversed(3)
    assert [rev.b(i) for i in range(4)] == [MultiPoly.variable("b", 3), MultiPoly.const(5),
                                             MultiPoly.const(3), MultiPoly.const(2)]
    assert [rev.lam(i) for i in (1, 2, 3)] == [MultiPoly.variable("lam", i) for i in (3, 2, 1)]
    assert rev != spec and rev.name != spec.reversed(4).name
    sym = W.symbolic().reversed(3)
    assert sym.b(1) == W.symbolic().b(2) and sym.reversed(3).lam(1) == W.symbolic().lam(1)
    # reversing twice at one bound is the identity, on symbols and numbers
    for base in (W.symbolic(), W.spec("custom:[2,3,5,7]", "custom:[1,4,9]")):
        twice = base.reversed(3).reversed(3)
        assert [twice.b(i) for i in range(4)] == [base.b(i) for i in range(4)]
        assert [twice.lam(i) for i in (1, 2, 3)] == [base.lam(i) for i in (1, 2, 3)]
    # at K = 2k-1, reversing av_lambda swaps A_j <-> V_{k+1-j}: the
    # weighted-Alt pair of check_pv2 is stated on these weights
    av = W.av_lambda()
    for k in (1, 2, 3):
        swap = {}
        for j in range(1, k + 1):
            swap[("A", j)] = MultiPoly.variable("V", k + 1 - j)
            swap[("V", j)] = MultiPoly.variable("A", k + 1 - j)
        rev = av.reversed(2 * k - 1)
        for i in range(1, 2 * k):
            assert rev.lam(i) == av.lam(i).subs(swap), (k, i)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(b=st.lists(_NONZERO, min_size=4, max_size=4), lam=st.lists(_NONZERO, min_size=3, max_size=3))
def test_reversal_commutes_with_specializing(b, lam):
    # reversing numbers, then computing, matches computing on reversed
    # symbols and substituting the numbers afterwards
    K = 3
    numeric = W.spec(_custom(b), _custom(lam))
    assume(well_defined(K, numeric)[0])
    assign = {("b", i): b[i] for i in range(K + 1)}
    assign.update({("lam", i): lam[i - 1] for i in range(1, K + 1)})
    d_sym, vecs_sym = adjugate_vectors(K, W.symbolic().reversed(K), 0, 2)
    d_num, vecs_num = adjugate_vectors(K, numeric.reversed(K), 0, 2)
    assert prod(d_sym).subs(assign) == prod(d_num)
    assert [c.subs(assign) for c in vecs_sym[2]] == vecs_num[2]


def test_main_reciprocity_skips_ill_defined():
    # (z, 1) at even bound k+m-1 has no backward side
    assert check_main_reciprocity(1, 1, 2, W.zero_one()).status == "SKIPPED"


def test_theorem15_small():
    for n in range(0, 3):
        for k in range(0, 3):
            for m in range(0, 3):
                assert check_theorem15(n, k, m).passed, (n, k, m)


def test_conjectures_small():
    for n in range(0, 3):
        for k in range(0, 3):
            for m in range(0, 3):
                assert check_conjecture50(n, k, m).passed, (n, k, m)
    seen_skip = False
    for n in range(1, 3):
        for k in range(1, 3):
            for m in range(1, 3):
                c = run_check("conj53", {"n": n, "k": k, "m": m})
                seen_skip |= c.status == "SKIPPED"
                assert c.status in ("PASS", "SKIPPED")
    assert seen_skip  # k + m = 2 (mod 3) occurs in the grid


def test_conjecture50_negative_n_at_m_zero():
    # at m = 0 and n <= -2 the sign's exponent C(k, 2) (n + 1) is negative:
    # the sign must stay an integer, and the identity holds there
    for n in range(-6, 0):
        for k in range(0, 5):
            c = check_conjecture50(n, k, 0)
            assert c.passed and isinstance(c.rhs, MultiPoly), (n, k)


def test_theorem34_small():
    for n in (1, 2):
        for k in (1, 2):
            for m in (1, 2):
                assert check_theorem34(n, k, m).passed, (n, k, m)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            assert check_dyck_motzkin_connection(n, k).passed


def test_rpp_modes():
    c = check_rpp_identity(1, 1, 1, mode="q")
    assert c.passed
    assert c.lhs.render() == "q^3 + q^2 + 2*q + 1"
    assert rpp_prefactor_exponent(1, 1) == 3
    for (n, m, k) in ((0, 1, 1), (1, 1, 1), (0, 2, 1)):
        assert check_rpp_identity(n, m, k, mode="symbolic-VA").passed
    for (n, m) in ((1, 1), (2, 1)):
        assert check_rpp_identity(n, m, 0, mode="q-unbounded", trunc=6).passed


def test_rpp_right_side_weighs_each_hankel_entry_once(monkeypatch):
    # the m x m grid has 2m-1 distinct entries: 5 weighted sums at m = 3, not 9
    real = reciprocity.paths.weight_sum
    calls = []

    def counting(objs, factors, *rest):
        calls.append(factors)
        return real(objs, factors, *rest)

    monkeypatch.setattr(reciprocity.paths, "weight_sum", counting)
    assert check_rpp_identity(0, 3, 0).passed
    assert sum(f is reciprocity.paths.seq_av_factors for f in calls) == 5
    assert len(calls) == 1 + 5   # the left side's one sum over fillings


def test_special_matrices():
    for k in range(1, 8):
        assert check_special_dets(k).passed, k
    # B * Abar = I frozen 2x2 example
    B = b_matrix(1)
    assert [[e.as_fraction() for e in row] for row in B.data] == [[-2, 1], [-1, 1]]
    Abar = reversed_special_matrix(1)
    assert [[e.as_fraction() for e in row] for row in Abar.data] == [[-1, 1], [-1, 2]]
    prod = B * Abar
    assert [[e.as_fraction() for e in row] for row in prod.data] == [[1, 0], [0, 1]]


def test_alt_transfer():
    A = alt_transfer_matrix(1)
    # row 0 has ones at odd columns above the diagonal
    assert [e.as_fraction() for e in A.data[0]] == [0, 1, 0, 1]
    for k in range(0, 3):
        for n in range(0, 6):
            assert check_alt_transfer_counts(n, k).passed
        assert check_alt_cf(k).passed


def _alternating_cf(k):
    """-y/(y - b_0 + 1/(y - b_1 + ...)), y = (-1)^k x, b_0 = (-1)^k and
    b_i = 2 (-1)^(k-i): the continued fraction of bounded alternating counts
    (Flajolet 1980), written out with no weight spec."""
    y = (-1) ** k * MultiPoly.variable("x")
    bs = [(-1) ** k] + [2 * (-1) ** (k - i) for i in range(1, k + 1)]
    return cf_eval([-y] + [MultiPoly.const(-1)] * k, [y - b for b in bs])


def test_alternating_cf_is_the_signed_stepped_table():
    # the series of the continued fraction, expanded by the oracle, equals
    # the signed negative moments of b_special(k).reversed(k) that alt-cf
    # and connection2 read, and the brute-force alternating counts
    for k in range(9):
        series = gf_series(_alternating_cf(k), 9)
        table = reciprocity._signed_reversed_special(8, k)
        for n in range(1, 9):
            count = paths.count_alt(n, k + 1)
            assert series[n] == RatFunc(table[n]) == RatFunc(count), (k, n)


def test_connections_small():
    for n in range(0, 5):
        for k in range(1, 5):
            assert check_connection1(n, k).passed, (n, k)
            assert check_connection2(n, k).passed, (n, k)


def test_pv_wrappers():
    for n in (1, 2, 3):
        for k in (1, 2):
            assert check_pv2(n, k).passed
            assert check_pv3a(n, k).passed
            assert check_pv3b(n, k).passed
    assert check_pv3_rs(2, 1, 1, 2).passed
    c = run_check("pv3-rs", {"n": 1, "k": 1, "r": 9, "s": 9})
    assert (c.status, c.reason) == ("SKIPPED", "endpoints exceed both bounds")


def test_pv3_rs_tuples_share_one_row_across_s(monkeypatch):
    stepped = []
    real = reciprocity.adjugate_vectors
    monkeypatch.setattr(reciprocity, "adjugate_vectors",
                        lambda *args: stepped.append(args[2:]) or real(*args))
    reciprocity._pinned_pv3_row.cache_clear()
    for n in (1, 2, 3):
        for r in range(4):
            for s in range(4):
                assert check_pv3_rs(n, 1, r, s).passed, (n, r, s)
    # the grid varies s fastest: the cache holds only the current tuple's rows
    assert reciprocity._pinned_pv3_row.cache_info().currsize <= 4
    # one row e_r^T adj(A)^n per (n, r, bound) and weight table: 3 start
    # heights at bound 2, 4 at bound 3, each stepped exactly n times
    assert sorted(stepped) == sorted(2 * [(r, n) for n in (1, 2, 3) for r in range(3)]
                                     + 2 * [(r, n) for n in (1, 2, 3) for r in range(4)])
    for n in (1, 4):
        assert reciprocity._pinned_pv3_moment(n, 2, 1, 5, unit_weights=False) == \
            negative_moment(n, 2, 1, 5, W.v_inverse())
    c = run_check("pv3-rs", {"n": 0, "k": 1, "r": 0, "s": 0})
    assert (c.status, c.reason) == ("SKIPPED", "negative index n must be >= 1")


def test_inverse_checks():
    for k in range(0, 4):
        assert check_usmani(k).passed
    assert check_vv_inverse(2).passed
    c = run_check("vv-inv", {"k": 4})
    assert (c.status, c.reason) == ("SKIPPED", "k = 1 (mod 3): matrix singular")


def test_sigma_check():
    for n in (1, 2):
        for k in (1, 2):
            assert check_sigma(n, k).passed
