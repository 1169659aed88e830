"""Ring arithmetic, canonical rendering, exact division, and gcd."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negmom import poly as P
from negmom.poly import (
    ExactDivisionError,
    MultiPoly,
    make_var,
    poly_div_exact,
    poly_gcd,
)
from negmom import weights as W
from negmom.moments import well_defined
from negmom.ratfunc import over_power
from test_moments import _b_exprs, _lam_exprs   # mini-language weight specs


def rand_poly(rng, max_terms=4, families=("b", "lam", "V")):
    out = MultiPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = MultiPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            fam = rng.choice(families)
            term = term * MultiPoly.variable(fam, rng.randint(0, 2))
        out = out + term
    return out


def test_additive_inverse_and_identity():
    b0, l1 = P.b(0), P.lam(1)
    assert (b0 + l1) + (-l1) == b0
    assert b0 * 1 == b0
    assert b0 * 0 == MultiPoly.zero()


def test_quadratic_expansion():
    # (x - b0)(x - b1) - lam1, expanded by hand
    x, b0, b1, l1 = P.x(), P.b(0), P.b(1), P.lam(1)
    assert (x - b0) * (x - b1) - l1 == x * x - (b0 + b1) * x + b0 * b1 - l1


def test_ring_laws_random():
    rng = random.Random(20240817)
    for _ in range(60):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p * MultiPoly.const(1) == p
        assert (p - p).is_zero()


def test_pow_and_unit_inverse():
    v = P.V(2)
    assert v ** 3 == v * v * v
    assert v ** 0 == MultiPoly.const(1)
    inv = (2 * v).unit_inverse()
    assert inv * (2 * v) == MultiPoly.const(1)
    with pytest.raises(ZeroDivisionError):
        (v + 1).unit_inverse()


def test_laurent_exponents():
    v = MultiPoly.variable("V", 0, -1)
    assert v * P.V(0) == MultiPoly.const(1)
    assert v.render() == "V0^-1"


def test_render_canonical():
    p = P.V(0) * P.V(1) ** 2 + 2
    assert p.render() == "V0*V1^2 + 2"
    assert (P.b(0) - P.b(1)).render() == "b0 - b1"
    assert MultiPoly.zero().render() == "0"
    assert (-P.q() + P.x()).render() in ("x - q", "-q + x")
    assert MultiPoly.const(Fraction(-1, 2)).render() == "-1/2"


def test_substitute_examples():
    expr = P.b(0) ** 2 + P.lam(1)
    assert expr.subs({("b", 0): 0, ("lam", 1): 1}).as_fraction() == 1
    assert P.V(1).subs({("V", 1): P.q()}) == P.q()
    with pytest.raises(ZeroDivisionError):
        MultiPoly.variable("b", 0, -1).subs({("b", 0): 0})


def test_substitute_cancels_to_zero():
    assert (P.b(0) - P.b(1)).subs({("b", 0): P.b(1)}).is_zero()
    assert (P.b(0) * P.lam(1) - P.lam(1)).subs({("b", 0): 1}).is_zero()


def test_substitute_partial():
    expr = P.b(0) + P.lam(2)
    out = expr.subs({("b", 0): 7})
    assert out == MultiPoly.const(7) + P.lam(2)


def reverse_index(e, n):
    """e relabeled b_i -> b_{n-i}, lam_i -> lam_{n+1-i} through WeightSpec.reversed."""
    rev = W.symbolic().reversed(n)
    assignment = {("b", i): rev.b(i) for i in range(n + 1)}
    assignment.update({("lam", i): rev.lam(i) for i in range(1, n + 1)})
    return e.subs(assignment)


def swap_av(e, k):
    """e relabeled A_j -> V_{k+1-j}, V_j -> A_{k+1-j} for j = 0..k+1."""
    assignment = {}
    for j in range(k + 2):
        assignment[("A", j)] = MultiPoly.variable("V", k + 1 - j)
        assignment[("V", j)] = MultiPoly.variable("A", k + 1 - j)
    return e.subs(assignment)


def test_reverse_index_relabeling():
    e = P.b(1) + P.lam(2) + P.b(3) ** 2 * P.lam(1)
    assert reverse_index(e, 5) == P.b(4) + P.lam(4) + P.b(2) ** 2 * P.lam(5)
    assert reverse_index(reverse_index(e, 5), 5) == e
    assert reverse_index(reverse_index(P.b(0) * P.lam(2), 3), 3) == P.b(0) * P.lam(2)


def test_swap_av_involution():
    m = P.V(1) * P.A(2)
    assert swap_av(m, 2) == m
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng, families=("V", "A"))
        assert swap_av(swap_av(p, 3), 3) == p
    # the swap is the index reversal of av_lambda at K = 2k-1
    av = W.av_lambda()
    for k in (1, 2, 3):
        rev = av.reversed(2 * k - 1)
        for i in range(1, 2 * k):
            assert rev.lam(i) == swap_av(av.lam(i), k), (k, i)


def test_exact_division():
    x = P.x()
    f = (1 - x * x) * (P.b(0) + x)
    assert poly_div_exact(f, 1 - x * x) == P.b(0) + x
    with pytest.raises(ExactDivisionError):
        poly_div_exact(1 - x * x, 1 + x + x * x)


def test_exact_division_laurent():
    v = MultiPoly.variable("V", 0, -1)
    f = v * (1 + P.V(1))
    assert poly_div_exact(f, v) == 1 + P.V(1)
    assert poly_div_exact(f, 1 + P.V(1)) == v


def test_gcd_basic():
    x = P.x()
    g = poly_gcd(1 - x * x, 1 - x)
    assert g == x - 1 or g == 1 - x
    assert poly_gcd(P.b(0), P.lam(1)) == MultiPoly.const(1)
    # monomials are Laurent units, so they normalize out of the gcd
    assert poly_gcd(MultiPoly.zero(), 3 * P.b(0)) == MultiPoly.const(1)
    assert poly_gcd(MultiPoly.zero(), 3 * (P.b(0) + 1)) == P.b(0) + 1


def test_gcd_random_products():
    rng = random.Random(99)
    for _ in range(25):
        a, b_, c = (rand_poly(rng, max_terms=3) for _ in range(3))
        if a.is_zero() or b_.is_zero() or c.is_zero():
            continue
        g = poly_gcd(a * c, b_ * c)
        # c divides the gcd of the two products
        poly_div_exact(g, poly_gcd(g, c))  # no exception
        assert poly_div_exact((a * c), poly_gcd(g, c)) is not None


def test_monomial_content():
    p = P.b(0) ** 2 * P.V(1) + P.b(0) * P.V(1) ** 3
    assert dict(p.monomial_content()) == {("b", 0): 1, ("V", 1): 1}


def test_var_validation():
    with pytest.raises(ValueError):
        make_var("zz", 0)
    with pytest.raises(ValueError):
        make_var("b", None)
    assert make_var("q") == ("q", -1)


# -- exact coefficients ----------------------------------------------------------

def test_exact_division_by_constant_stays_exact():
    assert poly_div_exact(MultiPoly.const(7 * 3 ** 40), MultiPoly.const(7)) == \
        MultiPoly.const(3 ** 40)
    assert poly_div_exact(MultiPoly.const(3), MultiPoly.const(2)).as_fraction() == \
        Fraction(3, 2)


def test_float_coefficients_rejected():
    for c in (0.5, 0.0):   # a zero float too
        with pytest.raises(TypeError):
            MultiPoly.const(c)
    with pytest.raises(TypeError):
        MultiPoly({((("b", 0), 1),): 2.0})
    with pytest.raises(TypeError):
        P.b(0) * 1.5


# -- packed monomials: property tests ----------------------------------------------

VARS = ([("b", i) for i in range(8)] + [("lam", i) for i in range(1, 7)]
        + [("V", i) for i in range(4)] + [("A", i) for i in range(1, 4)]
        + [("q", -1), ("x", -1)])
assert len(VARS) > 16

coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
monos = st.lists(st.tuples(st.sampled_from(VARS), st.integers(-3, 3)), max_size=4)
laurent = st.dictionaries(monos.map(tuple), coeffs, max_size=5).map(MultiPoly)
nonzero = laurent.filter(lambda p: not p.is_zero())
# true polynomials in a few variables, small enough for sympy
small_monos = st.lists(st.tuples(st.sampled_from(VARS[:2] + VARS[-2:]), st.integers(0, 2)),
                       max_size=3)
small = st.dictionaries(small_monos.map(tuple), st.integers(-4, 4), max_size=3).map(MultiPoly)
settings_ = settings(max_examples=60, deadline=None)


@settings_
@given(laurent, laurent, laurent)
def test_ring_axioms(p, q_, r):
    assert (p * q_) * r == p * (q_ * r)
    assert p * (q_ + r) == p * q_ + p * r
    assert p * q_ == q_ * p
    assert (p + q_) + r == p + (q_ + r)
    assert p - q_ == p + (-q_)
    assert (p - p).is_zero() and p * 1 == p and p + 0 == p


@settings_
@given(laurent, laurent)
def test_product_matches_tuple_monomial_reference(p, q_):
    want = {}
    for m1, c1 in p.terms():
        for m2, c2 in q_.terms():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted((v, e) for v, e in exps.items() if e))
            want[m] = want.get(m, 0) + c1 * c2
    assert dict((p * q_).terms()) == {m: c for m, c in want.items() if c}


@settings_
@given(laurent)
def test_terms_round_trip(p):
    terms = list(p.terms())
    assert MultiPoly(dict(terms)) == p
    assert MultiPoly(dict(terms)).render() == p.render()
    for mono, c in terms:
        assert mono == tuple(sorted(mono)) and all(e for _, e in mono) and c


@settings_
@given(laurent, nonzero)
def test_div_exact_inverts_mul(f, g):
    assert poly_div_exact(f * g, g) == f


@settings(max_examples=30, deadline=None)
@given(small, small, small)
# PRSs in x whose third remainder is divided by g*h^delta with delta = 1 and
# a nonconstant h (Algorithm C's h: 8 - 16*b1, 144*b1 - 96, 32*b0 - 64), so
# a divisor with one power of h too many does not divide
@example(2 * P.b(1) * P.x() ** 3 + P.x() ** 2 + P.b(0),
         2 * P.x() ** 3 + 2 * P.x() ** 2 - P.x() + 3, 2 - 2 * P.x())
@example(2 * P.b(1) * P.x() ** 4 - 2 * P.x() ** 3 + 1,
         -2 * P.x() ** 4 + 3 * P.x() ** 3 - P.x(), 2 * P.x() + 3)
@example(P.b(0) * P.x() ** 4 + (P.b(0) + 2) * P.x() ** 3 + 1,
         2 * P.x() ** 3 + 2 * P.x() ** 2 - 2 * P.x() + 3, 2 * P.x() - 2)
def test_gcd_agrees_with_sympy(f, g, h):
    """poly_gcd(f*h, g*h) is sympy's gcd up to a unit of the Laurent ring,
    in ``primitive()``'s normal form."""
    sympy = pytest.importorskip("sympy")
    if f.is_zero() or g.is_zero() or h.is_zero():
        return
    names = {P.var_name(v): sympy.Symbol(P.var_name(v)) for v in VARS}

    def to_sympy(p):
        return sympy.parse_expr(p.render().replace("^", "**"), local_dict=names)

    got = poly_gcd(f * h, g * h)
    assert got.primitive()[1] == got
    ratio = sympy.cancel(to_sympy(got) / sympy.gcd(to_sympy(f * h), to_sympy(g * h)))
    # equal up to units of the Laurent ring: a rational times a monomial
    for part in sympy.fraction(ratio):
        assert len(sympy.Poly(part, *names.values()).terms()) == 1


# -- exact division and gcd against sympy -----------------------------------

# b0 < b1 < lam1 < x in variable order, so x is a divisor's main variable
TOWER = (P.b(0), P.b(1), P.lam(1), P.x())


def _tower_poly(terms):
    out = MultiPoly.zero()
    for exps, c in terms.items():
        term = MultiPoly.const(c)
        for v, e in zip(TOWER, exps):
            term = term * v ** e
        out = out + term
    return out


def tower_polys(n_vars=4):
    """Small true polynomials in the first ``n_vars`` variables of TOWER."""
    exps = st.tuples(*[st.integers(0, 2)] * n_vars + [st.just(0)] * (4 - n_vars))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(_tower_poly)


@st.composite
def nested_divisors(draw):
    """c + b0*low + x^a * (mid + lam1^j * b0^k * (1 + b1*u)): a nonzero
    constant term, so no monomial content at the top, while the leading
    coefficient of the leading coefficient carries b0^k, two levels down."""
    b0, b1, lam1, x = TOWER
    c = draw(st.sampled_from([-2, -1, 1, 3]))
    low, mid, u = draw(tower_polys(3)), draw(tower_polys(2)), draw(tower_polys(1))
    a, j, k = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return c + b0 * low + x ** a * (mid + lam1 ** j * b0 ** k * (1 + b1 * u))


def _sympy_of(*polys):
    """sympy, the polys as sympy expressions, and TOWER's symbols."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("b0 b1 lam1 x")
    names = {str(s): s for s in gens}
    return sympy, [sympy.parse_expr(p.render().replace("^", "**"), local_dict=names)
                   for p in polys], gens


@settings(max_examples=80, deadline=None)
@given(tower_polys(), nested_divisors(), tower_polys(),
       st.sampled_from([(), ((("b", 0), 1),), ((("b", 1), 1), (("lam", 1), 2))]))
@example(P.b(1) + P.x(), 1 + P.x() * P.lam(1) * P.b(0) * (1 + P.b(1)), MultiPoly.zero(), ())
@example(MultiPoly.const(1), 1 + P.x() * P.lam(1) * P.b(0) ** 2 * (1 + P.b(1)), P.b(0), ())
def test_div_exact_agrees_with_sympy(q_, g, r, content):
    """poly_div_exact on true polynomials: the quotient sympy finds when its
    remainder is zero (the divisor alone is a Groebner basis of its ideal),
    ExactDivisionError otherwise."""
    f = (g * q_ + r).shift_monomial(content)
    sympy, (F, G), gens = _sympy_of(f, g)
    quo, rem = sympy.div(F, G, *gens, domain="QQ")
    if rem != 0:
        with pytest.raises(ExactDivisionError):
            poly_div_exact(f, g)
    else:
        _, (got,), _ = _sympy_of(poly_div_exact(f, g))
        assert sympy.expand(got - quo) == 0


@st.composite
def probe_pairs(draw):
    """Two small true polynomials, half of them sharing a nonconstant factor."""
    f, g = draw(tower_polys()), draw(tower_polys())
    if draw(st.booleans()):
        h = draw(tower_polys().filter(lambda h: not h.is_const()))
        f, g = f * h, g * h
    return f, g


@settings(max_examples=80, deadline=None)
@given(probe_pairs())
@example(((1 + P.b(0)) * (2 + P.b(1)), (1 + P.b(0)) * (1 + P.b(1))))
@example((P.b(0) * (1 + P.b(1)), P.b(0) * (2 + P.lam(1))))   # a shared monomial
# the shared h = (b0 - 3)(b1 - 5) + 1 is 1 at (b0, b1) = (3, 5), so any
# evaluation there in either variable hides it
@example((((P.b(0) - 3) * (P.b(1) - 5) + 1) * (1 + P.b(0)),
          ((P.b(0) - 3) * (P.b(1) - 5) + 1) * (2 + P.b(1))))
def test_gcd_probe_is_sound(pair):
    """poly_gcd(f, g) is constant, the coprimality verdict ``irreducible``
    rests on, exactly when sympy's gcd is a unit of the Laurent ring."""
    f, g = pair
    assume(not f.is_zero() and not g.is_zero())
    sympy, (F, G), gens = _sympy_of(f, g)
    unit = len(sympy.Poly(sympy.gcd(F, G), *gens).terms()) == 1
    assert poly_gcd(f, g).is_const() == unit


@settings_
@given(laurent)
@example(MultiPoly.zero())
@example(-2 * P.b(0) ** -1 + Fraction(4, 3) * P.b(0) ** 2 * P.x())   # content -2/3 * b0^-1
def test_primitive_is_the_normal_form(p):
    """p = unit * part, the unit a single term and the part a true polynomial
    with zero monomial content, coprime integer coefficients and a positive
    leading coefficient; zero maps to itself."""
    unit, part = p.primitive()
    assert unit.is_term() and unit * part == p
    if p.is_zero():
        assert part.is_zero()
        return
    assert part.monomial_content() == ()
    assert all(e > 0 for mono, _ in part.terms() for _, e in mono)
    coeffs = [c for _, c in part.terms()]
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert part.leading()[1] > 0
    assert part.primitive() == (MultiPoly.const(1), part)


LIMIT = P.EXPONENT_LIMIT


def _subs_reference(p, assignment):
    """Term-by-term substitution through the public ring operations."""
    total = MultiPoly.zero()
    for mono, c in p.terms():
        term = MultiPoly.const(c)
        for v, e in mono:
            val = assignment.get(v)
            term = term * (MultiPoly.variable(v[0], None if v[1] < 0 else v[1], exp=e)
                           if val is None else val ** e)
        total = total + term
    return total


# substituted values: Laurent units (so negative exponents invert) or any polynomial
units = st.builds(lambda c, m: MultiPoly({tuple(m): c}),
                  coeffs.filter(bool), st.lists(st.tuples(st.sampled_from(VARS), st.integers(-2, 2)),
                                                max_size=2))
subs_values = st.one_of(units, laurent.filter(lambda p: len(p) > 1), st.integers(-3, 3))


@settings_
@given(laurent, st.dictionaries(st.sampled_from(VARS), subs_values, max_size=4))
def test_subs_matches_term_by_term_reference(p, assignment):
    vals = {v: x if isinstance(x, MultiPoly) else MultiPoly.const(x)
            for v, x in assignment.items()}
    try:
        want = _subs_reference(p, vals)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.subs(assignment)
        return
    assert p.subs(assignment) == want


@settings_
@given(st.integers(-2 * LIMIT, 2 * LIMIT))
def test_constructor_refuses_exponents_past_the_field(e):
    if abs(e) > LIMIT:
        with pytest.raises(OverflowError):
            MultiPoly.variable("b", 0, e)
    else:
        assert MultiPoly.variable("b", 0, e).degree(("b", 0)) == e


@settings_
@given(st.integers(-LIMIT, LIMIT), st.integers(-LIMIT, LIMIT), st.integers(-3, 3),
       st.sampled_from(VARS))
def test_products_raise_rather_than_wrap(e1, e2, f, other):
    v = ("b", 0)
    same = f if other == v else 0
    assume(abs(e1 + same) <= LIMIT)
    p = MultiPoly({((v, e1), (other, f)): 1})
    q_ = MultiPoly({((v, e2),): 1})
    if abs(e1 + e2 + same) > LIMIT:
        with pytest.raises(OverflowError):
            p * q_
        return
    prod = p * q_
    assert prod == MultiPoly({((v, e1 + e2), (other, f)): 1})
    assert prod.degree(v) == e1 + e2 + same
    if other != v:
        assert prod.degree(other) == f


def test_overflow_at_field_limit():
    x_, b0, b1 = P.x(), P.b(0), P.b(1)
    top = MultiPoly.variable("x", exp=LIMIT)
    with pytest.raises(OverflowError):
        top * x_
    with pytest.raises(OverflowError):
        MultiPoly.variable("x", exp=-LIMIT - 1)
    with pytest.raises(OverflowError):
        (x_ * x_) ** LIMIT
    with pytest.raises(OverflowError):
        (top + 1) ** 2
    with pytest.raises(OverflowError):
        b1.shift_monomial(((("b", 1), LIMIT),))
    # a bound past the limit is rechecked exactly, not refused
    assert top * MultiPoly.variable("x", exp=-LIMIT) == 1
    assert (b0 ** LIMIT * b1) * b0 ** -1 == b0 ** (LIMIT - 1) * b1
    assert (top + x_ ** 5) * x_ ** -5 == MultiPoly.variable("x", exp=LIMIT - 5) + 1


# -- shared variables: no operation changes an operand ----------------------------------

def _state(polys):
    return [(dict(p._terms), p._bound) for p in polys]


@settings_
@given(laurent, laurent, st.sampled_from(VARS), st.integers(-3, 3).filter(bool))
def test_operations_leave_their_operands_unchanged(p, q_, var, e):
    # MultiPoly.variable hands out one shared instance per argument triple,
    # which is sound only while every operation builds new terms
    v = MultiPoly.variable(var[0], var[1], e)
    d = v + 1   # not a unit, irreducible: over_power's division path
    operands = [p, q_, v, d]
    before = _state(operands)
    p + q_, p - q_, p * q_, p * v, v * v, q_ * 3, p ** 2, v ** -2, v ** 0, -p, -v
    P.poly_dot([(p, q_), (v, p)], start=q_)
    P.poly_dot([(v, v)], start=v)
    P.poly_sum([p, q_, v, -v])
    v.unit_inverse()
    p.shift_monomial(((var, 1),), 2)
    v.shift_monomial(((var, -e),))
    p.coefficient(var, e), v.coefficient(var, e)
    p.subs({var: 2}), p.subs({var: v}), v.subs({var: 2})
    if e > 0:   # a negative power takes only a unit
        v.subs({var: q_})
    over_power(p * d, (d,), 1), over_power(p, (d,), 2), over_power(p, (v,), 2)
    assert _state(operands) == before
    assert _state([MultiPoly.variable(var[0], var[1], e)]) == _state([MultiPoly({((var, e),): 1})])


def test_variable_is_shared_but_not_across_classes():
    assert MultiPoly.variable("b", 2) is MultiPoly.variable("b", 2) == P.b(2)
    assert MultiPoly.variable("V", 1, -1) == MultiPoly.variable("V", 1, -1) == P.V(1) ** -1
    assert MultiPoly.variable("q") == MultiPoly.variable("q", -1) == P.q()
    assert MultiPoly.variable("b", 2, 0) == MultiPoly.const(1)

    class Sub(MultiPoly):
        __slots__ = ("tag",)

    s1, s2 = Sub.variable("b", 2), Sub.variable("b", 2)
    assert type(s1) is Sub and s1 is not s2 and s1 == s2 == P.b(2)
    s1.tag = "own"   # a subclass instance is the caller's own
    assert type(MultiPoly.variable("b", 2)) is MultiPoly
    assert type(Sub.variable("b", 2, 0)) is Sub and type(Sub.const(3)) is Sub
    assert type(Sub.zero()) is Sub


@pytest.mark.parametrize("args, error", [
    (("c", 1), ValueError),             # unknown family
    (("b", -1), ValueError),            # negative index
    (("b", None), ValueError),          # missing index
    (("q", 2), ValueError),             # q carries no index
    (("b", 0, LIMIT + 1), OverflowError),
])
def test_bad_variable_raises_on_every_call(args, error):
    for _ in range(3):   # a failed call leaves nothing behind to be handed out
        with pytest.raises(error):
            MultiPoly.variable(*args)


# -- the fused sum of products -------------------------------------------------------

def _chained_dot(pairs, start):
    acc = MultiPoly.zero() if start is None else start
    for f, g in pairs:
        acc = acc + f * g
    return acc


@settings_
@given(st.lists(st.tuples(laurent, laurent), max_size=4), st.none() | laurent, st.booleans())
@example([], None, False)                                         # no pairs
@example([(MultiPoly.zero(), P.b(0)), (P.b(1), MultiPoly.zero())], P.x(), False)   # empty operands
@example([(P.b(0) + P.lam(1), P.x() - 1), (P.V(1), P.q())], None, True)   # cancels to zero
def test_poly_dot_matches_chained_products(pairs, start, cancel):
    if cancel:   # every product met again negated: the sum is start alone
        pairs = pairs + [(-f, g) for f, g in pairs]
    got = P.poly_dot(pairs, start)
    want = _chained_dot(pairs, start)
    assert dict(got.terms()) == dict(want.terms())   # no zero coefficient kept
    if cancel:
        assert got == (MultiPoly.zero() if start is None else start)
    assert all(abs(e) <= got._bound for mono, _ in got.terms() for _, e in mono)


@settings_
@given(st.integers(-LIMIT, LIMIT), st.integers(-LIMIT, LIMIT), st.integers(-3, 3),
       st.sampled_from(VARS))
@example(LIMIT, -LIMIT, 0, ("b", 1))    # bound 2 * LIMIT, true range inside the field
@example(LIMIT, 1, 0, ("b", 1))         # one past the field
def test_poly_dot_raises_exactly_when_mul_does(e1, e2, f, other):
    v = ("b", 0)
    same = f if other == v else 0
    assume(abs(e1 + same) <= LIMIT)
    p = MultiPoly({((v, e1), (other, f)): 1})
    q_ = MultiPoly({((v, e2),): 1}) + 1   # two terms: the general product loop
    pairs = [(P.lam(1), P.lam(1)), (p, q_)]
    try:
        want = P.lam(1) ** 2 + p * q_
    except OverflowError:
        with pytest.raises(OverflowError):
            P.poly_dot(pairs)
        return
    assert P.poly_dot(pairs) == want


# -- the irreducibility certificate ---------------------------------------------------

def _spec_det(k, b_expr, lam_expr):
    return well_defined(k, W.spec(b_expr, lam_expr))[1]   # +-det A


def _sympy_factor_count(p):
    """Irreducible factors, with multiplicity, of p's polynomial part (sympy)."""
    sympy = pytest.importorskip("sympy")
    ph = p.shift_monomial(p.monomial_content(), -1)
    _, factors = sympy.factor_list(sympy.parse_expr(ph.render().replace("^", "**")))
    return sum(m for _, m in factors)


_certified = st.one_of(
    st.builds(_spec_det, st.integers(0, 4), _b_exprs, _lam_exprs),
    tower_polys(),
    st.builds(lambda f, g: f * g, tower_polys().filter(lambda f: not f.is_const()),
              tower_polys().filter(lambda f: not f.is_const())),
)
_contents = st.sampled_from([(), ((("b", 0), 1),), ((("b", 1), -2), (("lam", 1), 1))])


@settings(max_examples=100, deadline=None)
@given(_certified, _contents)
@example(_spec_det(3, "symbolic", "custom:[2,0]"), ())   # lam_2 = 0: d factors
@example(_spec_det(5, "symbolic", "symbolic"), ())
@example(_spec_det(3, "v-inverse", "v-inverse"), ())      # a Laurent d
@example((1 + P.b(0)) * (2 + P.b(1)), ((("b", 0), 1),))
@example(MultiPoly.zero(), ())
def test_irreducible_agrees_with_sympy_factor_list(d, content):
    """True exactly when sympy finds one irreducible factor and some variable
    has degree 1 in d's polynomial part; in particular never True for a
    reducible d (soundness)."""
    d = d.shift_monomial(content)
    dh = d.shift_monomial(d.monomial_content(), -1)
    linear = any(dh.degree(w) == 1 for w in dh.variables())
    assert P.irreducible(d) == (linear and _sympy_factor_count(d) == 1)


def test_pickle_round_trip():
    import pickle
    p = P.b(0) ** 2 * MultiPoly.variable("V", 3, -1) - Fraction(1, 3) * P.q()
    assert pickle.loads(pickle.dumps(p)) == p


def test_only_poly_reads_packed_terms():
    """Packed keys stay inside poly.py: no other module reads ``._terms``."""
    import ast
    import pathlib
    src = pathlib.Path(P.__file__).parent
    readers = [path.name for path in sorted(src.glob("*.py")) if path.name != "poly.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_terms"]
    assert readers == []


# -- canonical term order ----------------------------------------------------------

def _mono_sort_key(m):
    """Canonical order on tuple monomials, as first defined (larger = earlier)."""
    ordered = sorted(m, key=lambda it: P._var_key(it[0]))
    return (sum(e for _, e in m),
            tuple((-P._var_key(v)[0], -P._var_key(v)[1], e) for v, e in ordered))


def _render_reference(p):
    """``render`` spelled out on tuple monomials in the reference order."""
    parts = []
    for m, c in sorted(p.terms(), key=lambda mc: _mono_sort_key(mc[0]), reverse=True):
        ordered = sorted(m, key=lambda it: P._var_key(it[0]))
        mono = "*".join(P.var_name(v) if e == 1 else f"{P.var_name(v)}^{e}"
                        for v, e in ordered)
        ac = abs(c)
        body = mono if mono and ac == 1 else f"{ac}*{mono}" if mono else str(ac)
        sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
        parts.append(sign + body)
    return "".join(parts) or "0"


# fresh variables interned against variable order: later families and
# higher indices take the lower slots
ORDER_VARS = [("x", -1), ("q", -1), ("A", 9), ("V", 9), ("a", 9), ("a", 8),
              ("lam", 19), ("lam", 18), ("b", 29), ("b", 28)]
for _v in ORDER_VARS:
    MultiPoly.variable(_v[0], None if _v[1] < 0 else _v[1])
order_exps = st.integers(-2, 2) | st.sampled_from((-LIMIT, LIMIT - 1, 9))   # wide fields too


def _polys_over(pool):
    # few variables per polynomial, so equal degrees and shared variables are common
    monos = st.dictionaries(st.sampled_from(pool), order_exps, max_size=len(pool))
    return st.dictionaries(monos.map(lambda d: tuple(d.items())), coeffs,
                           max_size=8).map(MultiPoly)


order_polys = st.lists(st.sampled_from(VARS + ORDER_VARS), min_size=1, max_size=4,
                       unique=True).flatmap(_polys_over)


def _poly(*monos):
    return MultiPoly({tuple(m.items()): 1 for m in monos})


B0, B1, Q, X = ("b", 0), ("b", 1), ("q", -1), ("x", -1)


@settings(max_examples=150, deadline=None)
@given(order_polys)
@example(_poly({B1: 1}, {B0: -1, B1: 2}))             # present and negative beats absent
@example(_poly({B0: -4, B1: 4}, {B0: -3, Q: 2, X: 1}))   # fields up to 2*4 + 1
@example(_poly({}, {Q: -LIMIT}, {B0: LIMIT, Q: -LIMIT}))
@example(_poly({}, {Q: 1, X: -1}))                    # a constant and a degree-0 term
def test_term_order_matches_tuple_reference(p):
    terms = list(p.terms())
    assert terms == sorted(terms, key=lambda mc: _mono_sort_key(mc[0]), reverse=True)
    if terms:
        assert p.leading() == terms[0]
    assert p.render() == _render_reference(p)


def test_render_golden_hashes():
    """sha256 of ``render`` output, recorded with the tuple-monomial renderer."""
    import hashlib

    from gf_oracle import moment_gf
    from negmom.laurent import sigma_negative
    from negmom.moments import moment_vectors
    from negmom.weights import laurent_symbolic, symbolic

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    table = "\n".join(p.render() for u in moment_vectors(3, symbolic(), 0, 12) for p in u)
    assert digest(table) == "8cc26e908bcde74694526533ab2e3b8c45704a058981ce165dcdbcea64909e62"
    gf = moment_gf(1, 2, 3, symbolic())   # a RatFunc with a denominator of degree 4 in x
    assert not gf.is_poly()
    assert digest(gf.render()) == \
        "e0911592913c93ad6e03e5babf956a8e7a1a6281f29ca8ad3d8fe314486b08e1"
    laurent = sigma_negative(3, 2, laurent_symbolic())   # negative powers of b
    assert digest(laurent.render()) == \
        "fb614a24914cb4a082b2118b4bbea87484a0d2505222b402122445e009d87f2a"
