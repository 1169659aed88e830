"""Rational functions over the exact polynomial ring, as values.

A ``RatFunc`` is a numerator/denominator pair of ``MultiPoly``, built as
given: construction never computes a gcd.  It only normalizes the
denominator, moving into the numerator either the whole denominator,
when it is a single term (a Laurent unit), or its rational content
signed by its leading coefficient, so a denominator is 1 or an integer
primitive polynomial with positive leading coefficient.  Two RatFuncs
are equal when their cross products are.  Lowest terms are decided in
one place, ``over_power``, which divides out the gcd when a quotient by
a power of d is not polynomial.  No arithmetic is defined on RatFunc:
the program computes in the polynomial ring and divides once.

The series utilities treat ``x`` as the distinguished series variable;
all other variables ride along inside the coefficients.  A series is
expanded only over a Laurent-unit den(0), so its coefficients stay in the
polynomial ring; a quotient by any other polynomial is formed in the ring
and divided once by ``over_power``, the only place a quotient is reduced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Union

from .poly import (
    ExactDivisionError,
    MultiPoly,
    X_VAR,
    irreducible,
    poly_div_exact,
    poly_gcd,
    poly_sum,
)

PolyLike = Union[MultiPoly, int, Fraction]


def _as_poly(p: PolyLike) -> MultiPoly:
    return p if isinstance(p, MultiPoly) else MultiPoly.const(p)


class RatFunc:
    """num/den as built, its denominator normalized.  Not reduced
    (``over_power`` gives lowest terms), so equality is by
    cross-multiplication and a RatFunc is unhashable: equal values need
    not share a pair."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyLike, den: PolyLike = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = MultiPoly.zero(), MultiPoly.const(1)
        elif den.is_term():
            # a Laurent unit: absorb it into the numerator
            num, den = num * den.unit_inverse(), MultiPoly.const(1)
        else:
            scale = den.rational_content()
            if den.leading()[1] < 0:
                scale = -scale
            if scale != 1:
                num = num * (1 / scale)
                den = den * (1 / scale)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_const()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def render(self) -> str:
        if self.is_poly():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RatFunc({self.render()})"


# -- series machinery ----------------------------------------------------------


def x_coeffs(p: MultiPoly) -> Dict[int, MultiPoly]:
    return p.as_univariate(X_VAR)


def deg_x(p: MultiPoly) -> int:
    """Degree in x (coefficients in the other variables); -1 for zero."""
    u = x_coeffs(p)
    return max(u) if u else -1


def over_power(num: MultiPoly, d: MultiPoly, e: int) -> Union[MultiPoly, RatFunc]:
    """num / d**e in lowest terms: a MultiPoly when the quotient is
    polynomial, otherwise a RatFunc whose pair is coprime and whose
    denominator has no monomial content.  This is the one place where a
    quotient is reduced, so its rendering is canonical.

    Factors of d are stripped from num by trial exact division.  When a
    division fails, coprimality is tested against d itself, not against
    the power left: if gcd(num, d) is constant so is gcd(num, d**e), and
    the pair is built as it stands.  Otherwise gcd(num, d**e) is divided
    out of both.  When d is certified irreducible (``poly.irreducible``,
    cached by d, so once per table) the failed division is itself the
    proof, since an irreducible d that does not divide num is coprime to
    it, and the gcd probe is skipped.
    """
    if d.is_term():
        return num * d.unit_inverse() ** e
    while e and not num.is_zero():
        try:
            num = poly_div_exact(num, d)
        except ExactDivisionError:
            den = d ** e
            if not irreducible(d) and not poly_gcd(num, d).is_const():
                g = poly_gcd(num, den)
                num, den = poly_div_exact(num, g), poly_div_exact(den, g)
            mono = den.monomial_content()   # a unit: moved into the numerator
            return RatFunc(num.shift_monomial(mono, -1), den.shift_monomial(mono, -1))
        e -= 1
    return num


def series_expand(f: RatFunc, n_terms: int) -> List[MultiPoly]:
    """First ``n_terms`` power-series coefficients of f around x = 0.

    With den = d0 + d1 x + ... and num = a0 + a1 x + ..., the coefficients
    c_n satisfy d0 c_n = a_n - sum_j d_j c_{n-j}.  d0 must be a Laurent
    unit, so each c_n is that right side times d0's inverse, a MultiPoly;
    any other d0 raises ArithmeticError.  f itself need not be reduced.
    """
    den_u = x_coeffs(f.den)
    num_u = x_coeffs(f.num)
    if min(den_u, default=0) < 0 or min(num_u, default=0) < 0:
        raise ZeroDivisionError("pole at x = 0: negative power of x")
    d0 = den_u.pop(0, None)
    if d0 is None:
        raise ZeroDivisionError("denominator vanishes at x = 0")
    if not d0.is_term():
        raise ArithmeticError(f"series expansion needs a Laurent-unit den(0), not {d0.render()}")
    inv0 = d0.unit_inverse()
    zero = MultiPoly.zero()
    coeffs: List[MultiPoly] = []
    for n in range(n_terms):
        acc = num_u.get(n, zero)
        for j, dj in den_u.items():
            if j <= n:
                acc = acc - dj * coeffs[n - j]
        coeffs.append(acc * inv0)
    return coeffs


def invert_x(p: MultiPoly, degree: int) -> MultiPoly:
    """x**degree * p(1/x): reverse the x-exponents against ``degree``."""
    return poly_sum(c * MultiPoly.variable("x", exp=degree - e)
                    for e, c in x_coeffs(p).items())


class ReversalError(ValueError):
    """Raised when a generating function admits no index reversal."""


def reverse_gf(f: RatFunc) -> RatFunc:
    """Reverse a rational generating function to its negative-index side.

    For f = P/Q with deg P <= deg Q, Q(0) != 0 (and x | P when the
    degrees tie), returns -P(1/x)/Q(1/x) cleared to a rational function
    whose series lists the backward extension f_{-1}, f_{-2}, ... of the
    sequence; the result's series has zero constant term.
    """
    P, Q = f.num, f.den
    dp, dq = deg_x(P), deg_x(Q)
    qu = x_coeffs(Q)
    if 0 not in qu or qu[0].is_zero():
        raise ReversalError("denominator vanishes at x = 0")
    if min(x_coeffs(P), default=0) < 0 or min(qu) < 0:
        raise ReversalError("Laurent powers of x are not reversible")
    if f.is_zero():
        return f
    if dp > dq:
        raise ReversalError("numerator degree exceeds denominator degree: "
                            "no homogeneous linear recurrence")
    if dp == dq and not x_coeffs(P).get(0, MultiPoly.zero()).is_zero():
        raise ReversalError("degree tie with nonzero constant term: "
                            "no homogeneous linear recurrence")
    num = -invert_x(P, dq)
    den = invert_x(Q, dq)
    return RatFunc(num, den)


def cf_eval(partial_numerators: Sequence[PolyLike],
            partial_denominators: Sequence[PolyLike]) -> RatFunc:
    """Collapse the finite continued fraction

        n1 / (d1 - n2 / (d2 - ... - nt / dt))

    bottom-up into the pair N/D of the convergent recurrences, not
    reduced: its series is what callers use.  Note the built-in
    subtraction: signs belong to the partial numerators.
    """
    nums = [_as_poly(p) for p in partial_numerators]
    dens = [_as_poly(p) for p in partial_denominators]
    if len(nums) != len(dens) or not nums:
        raise ValueError("need matching, nonempty numerator/denominator lists")
    if dens[-1].is_zero():
        raise ZeroDivisionError(f"zero denominator at depth {len(dens)}")
    N, D = nums[-1], dens[-1]
    for i in range(len(nums) - 2, -1, -1):
        N, D = nums[i] * D, dens[i] * D - N
        if D.is_zero():
            raise ZeroDivisionError(f"zero denominator while collapsing at depth {i + 1}")
    return RatFunc(N, D)
