"""Rational-function values and lowest terms, series expansion, reversal,
continued fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negmom import poly as P
from negmom.poly import MultiPoly, poly_div_exact, poly_gcd
from negmom.ratfunc import (
    RatFunc,
    cf_eval,
    over_power,
    series_expand,
    x_coeffs,
)
from gf_oracle import ReversalError, reverse_gf

X = P.x()


def test_reduction_cancels_common_factor():
    # over_power is where a quotient is reduced: (1 - x^2) / (1 - x) = 1 + x
    assert over_power(1 - X * X, (1 - X,), 1) == 1 + X


def test_unit_denominator_absorbed():
    f = RatFunc(P.V(1), 2 * P.V(0))
    assert f.is_poly()
    assert f.num == Fraction(1, 2) * P.V(1) * MultiPoly.variable("V", 0, -1)


def test_den_normalized_primitive_positive():
    # 1/(2x - 2) = (1/2)/(x - 1): den integer-primitive, leading sign positive
    f = RatFunc(MultiPoly.const(1), -2 + 2 * X)
    assert f.den == X - 1
    assert f.num == MultiPoly.const(Fraction(1, 2))


def test_den_monomial_content_moves_to_numerator():
    # 1/(b0 + b0^2) = b0^-1/(b0 + 1): the monomial content is a Laurent unit
    f = RatFunc(1, P.b(0) + P.b(0) ** 2)
    assert f.den == P.b(0) + 1
    assert f.num == P.b(0) ** -1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, MultiPoly.zero())


def test_series_geometric():
    assert series_expand(RatFunc(1, 1 - X), 4) == [MultiPoly.const(1)] * 4


def test_series_shifted():
    s = series_expand(RatFunc(X, 1 - P.b(0) * X), 3)
    assert s[0].is_zero() and s[1] == 1 and s[2] == P.b(0)


def test_series_v_weights():
    f = RatFunc(P.V(1) * X, 1 - P.V(1) * P.V(0) * X * X)
    s = series_expand(f, 4)
    assert s == [MultiPoly.zero(), P.V(1), MultiPoly.zero(), P.V(1) ** 2 * P.V(0)]


def test_series_rational_coefficients():
    # 1/(b0 - x) is sum x^n / b0^{n+1}: b0 is a Laurent unit, so the
    # coefficients stay in the ring
    s = series_expand(RatFunc(1, P.b(0) - X), 3)
    assert s[2] == P.b(0) ** -3
    # any other den(0) leaves the ring and is refused: a quotient by it is
    # divided once by over_power, never per coefficient.  ArithmeticError,
    # not ValueError, which verify would report as SKIPPED
    d0 = P.b(0) + P.b(1)
    for num, den in ((1, d0 - X), (d0 ** 3, d0 - P.b(2) * X),
                     (P.b(0) * P.b(1) + P.b(0), P.b(0) ** 2 * P.b(1) + P.b(0) ** 2 + X)):
        with pytest.raises(ArithmeticError, match="Laurent-unit den") as err:
            series_expand(RatFunc(num, den), 3)
        assert not isinstance(err.value, (ValueError, ZeroDivisionError))


# polynomials over Z[b0, b1]
_b_monos = st.tuples(st.integers(0, 2), st.integers(0, 1))
_b_polys = st.dictionaries(_b_monos, st.integers(-4, 4), max_size=3).map(
    lambda d: sum((c * P.b(0) ** i * P.b(1) ** j for (i, j), c in d.items()),
                  MultiPoly.zero()))
_x_polys = st.lists(_b_polys, min_size=1, max_size=3).map(
    lambda cs: sum((c * X ** e for e, c in enumerate(cs)), MultiPoly.zero()))


def _lowest_terms(num, den):
    """The oracle: num / den with gcd(num, den) divided out of both, and
    den's monomial content (a unit) moved into the numerator."""
    g = poly_gcd(num, den)
    num, den = poly_div_exact(num, g), poly_div_exact(den, g)
    mono = den.monomial_content()
    return RatFunc(num.shift_monomial(mono, -1), den.shift_monomial(mono, -1))


def _assert_reduced_like_ratfunc(got, num, d, e):
    """over_power(num, d, e) is num / d**e in lowest terms term for term, or
    the polynomial that quotient reduces to."""
    want = _lowest_terms(num, d ** e)
    if isinstance(got, MultiPoly):
        assert want.is_poly() and got == want.num
    else:
        assert (got.num, got.den) == (want.num, want.den)


def test_over_power_reduces_a_proper_shared_factor():
    # num shares 1 + b0 with d, so dividing by d fails though num and d
    # are not coprime: the result is still reduced, not num / d^2 as built
    b0, b1 = P.b(0), P.b(1)
    d, num = (1 + b0) * (1 + b1), (1 + b0) * (2 + b1)
    got = over_power(num, (d,), 2)
    _assert_reduced_like_ratfunc(got, num, d, 2)
    assert got.den == (1 + b0) * (1 + b1) ** 2


_linear = st.builds(lambda c, k, v: c + k * v, st.integers(1, 3), st.sampled_from([-2, -1, 1, 2]),
                    st.sampled_from([P.b(0), P.b(1), P.lam(1)]))


@settings(max_examples=40, deadline=None)
@given(_linear, _linear, _linear, _b_polys, st.sampled_from([1, P.b(0), P.lam(1) ** 2]),
       st.integers(1, 3))
def test_over_power_matches_reduced_ratfunc(p, s, t, extra, mono, e):
    """d = p*s and num = p*t*extra share the factor p; d may carry a monomial.
    Whole, d is reducible and takes the gcd fallback; split into the
    certified blocks (p*mono, s) it is stripped by trial division alone."""
    assume(not extra.is_zero())
    d, num = p * s * mono, p * t * extra
    _assert_reduced_like_ratfunc(over_power(num, (d,), e), num, d, e)
    _assert_reduced_like_ratfunc(over_power(num, (p * mono, s), e), num, d, e)


@settings(max_examples=25, deadline=None)
@given(_x_polys, _x_polys)
@example(P.b(0) * P.b(1) + P.b(0), P.b(0) ** 2 * P.b(1) + P.b(0) ** 2 + X)   # c_0 = b0^-1
@example(P.b(1) + X, P.b(0) - P.b(1) * X)                                    # d0 = b0, a unit
def test_series_matches_sympy_for_non_unit_d0(num, den):
    """Where f has no pole at x = 0, series_expand matches sympy's series
    over a Laurent-unit den(0) and refuses any other den(0) with
    ArithmeticError, even when sympy's coefficients are Laurent polynomials."""
    sympy = pytest.importorskip("sympy")
    assume(0 in x_coeffs(den))   # no pole at x = 0
    f = RatFunc(num, den)
    d0 = x_coeffs(f.den)[0]
    names = {v: sympy.Symbol(v) for v in ("b0", "b1", "x")}

    def to_sympy(v):
        return sympy.parse_expr(v.render().replace("^", "**"), local_dict=names)

    order = 4
    want = sympy.series(to_sympy(f), names["x"], 0, order).removeO()
    if not d0.is_term():
        with pytest.raises(ArithmeticError, match="Laurent-unit den") as err:
            series_expand(f, order)
        assert not isinstance(err.value, (ValueError, ZeroDivisionError))
        return
    for n, c in enumerate(series_expand(f, order)):
        assert isinstance(c, MultiPoly), n
        ref = sympy.cancel(want.coeff(names["x"], n))
        assert sympy.cancel(to_sympy(c) - ref) == 0, n


def test_series_pole_rejected():
    with pytest.raises(ZeroDivisionError):
        series_expand(RatFunc(1, X), 3)


def test_reverse_self_dual():
    f = RatFunc(X, 1 - X * X)
    assert reverse_gf(f) == f


def test_reverse_geometric():
    # f_n = 1 for all n: the reversed series is x + x^2 + ...
    r = reverse_gf(RatFunc(1, 1 - X))
    assert series_expand(r, 4) == [MultiPoly.zero()] + [MultiPoly.const(1)] * 3


def test_reverse_degree_violation():
    with pytest.raises(ReversalError):
        reverse_gf(RatFunc(X * X, 1 + X))
    with pytest.raises(ReversalError):
        reverse_gf(RatFunc(1 + X, 1 - X))  # degree tie, nonzero constant


def test_reverse_involution_on_admissible_class():
    rng = random.Random(4242)
    for _ in range(40):
        dden = rng.randint(1, 4)
        den = MultiPoly.const(rng.randint(1, 3))
        for e in range(1, dden + 1):
            den = den + rng.randint(-3, 3) * X ** e
        if den.degree(P.X_VAR) < 1:
            continue
        dnum = rng.randint(1, den.degree(P.X_VAR))
        num = MultiPoly.zero()
        for e in range(1, dnum + 1):
            num = num + rng.randint(-3, 3) * X ** e
        if num.is_zero():
            continue
        f = RatFunc(num, den)
        if f.is_poly() or f.den.degree(P.X_VAR) <= f.num.degree(P.X_VAR):
            continue
        assert reverse_gf(reverse_gf(f)) == f


def test_cf_depth_one():
    f = cf_eval([MultiPoly.const(1)], [1 - P.b(0) * X])
    assert f == RatFunc(1, 1 - P.b(0) * X)


def test_cf_two_levels():
    # 1/(1 - x^2/1) collapses to 1/(1 - x^2)
    f = cf_eval([MultiPoly.const(1), X * X], [MultiPoly.const(1), MultiPoly.const(1)])
    assert f == RatFunc(1, 1 - X * X)


def test_cf_negative_route():
    # -x/(x - 1/x) has series 0, 0, 1, 0, 1
    f = cf_eval([-X, MultiPoly.const(1)], [X, X])
    s = series_expand(f, 5)
    assert [c.as_fraction() for c in s] == [0, 0, 1, 0, 1]


def test_cf_zero_denominator_reported():
    with pytest.raises(ZeroDivisionError):
        cf_eval([MultiPoly.const(1)], [MultiPoly.zero()])


def test_cross_multiplied_equality():
    # construction does not reduce: equal values keep different pairs, so
    # equality cross-multiplies and no hash of a pair could agree with it
    a = RatFunc(1 - X * X, (1 - X) * (1 + X + X * X))
    b = RatFunc(1 + X, 1 + X + X * X)
    assert a == b and (a.num, a.den) != (b.num, b.den)
    with pytest.raises(TypeError):   # unhashable: a set cannot keep both
        {a, b}
