"""Rational functions over the exact polynomial ring, as values.

A ``RatFunc`` is a numerator/denominator pair of ``MultiPoly``, built as
given: construction never computes a gcd.  It only puts the denominator
in the one normal form, ``MultiPoly.primitive()``, and moves the unit it
splits off (monomial content times signed rational content) into the
numerator, so a denominator is 1 or a true polynomial with zero monomial
content, coprime integer coefficients and a positive leading
coefficient.  Two RatFuncs are equal when their cross products are.
Lowest terms are decided in one place, ``over_power``, which strips the
factors of d, each certified irreducible, from a quotient by a power of
d by trial division.  No arithmetic is defined on RatFunc: the program
computes in the polynomial ring and divides once.  The module holds
``RatFunc`` and ``over_power`` only: the package expands no series (the
generating-function and continued-fraction routes live in the tests as
oracles).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .poly import (
    ExactDivisionError,
    MultiPoly,
    irreducible,
    poly_div_exact,
    poly_gcd,
)

PolyLike = Union[MultiPoly, int, Fraction]


def _as_poly(p: PolyLike) -> MultiPoly:
    return p if isinstance(p, MultiPoly) else MultiPoly.const(p)


class RatFunc:
    """num/den as built, its denominator in ``primitive()``'s normal form
    (the unit split off it joins the numerator).  Not reduced: lowest
    terms are ``over_power``'s to decide, so equality is by
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
        else:
            unit, den = den.primitive()
            num = num * unit.unit_inverse()
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


# -- lowest terms ---------------------------------------------------------------


def over_power(num: MultiPoly, blocks: Sequence[MultiPoly],
               e: int) -> Union[MultiPoly, RatFunc]:
    """num / d**e in lowest terms, d the product of ``blocks``: a MultiPoly
    when the quotient is polynomial, otherwise a RatFunc whose pair is
    coprime (``RatFunc`` puts its denominator in ``primitive()``'s normal
    form).  This is the one place where a quotient is reduced, so its
    rendering is canonical.

    A unit block is multiplied out.  Every other block B is stripped from
    num by trial exact division, at most e times, and B to the power left
    joins the denominator.  When B is certified irreducible
    (``poly.irreducible``, cached by B, so once per table) a failed
    division proves num coprime to B, and no gcd is taken.  Only a block
    the certificate cannot settle falls back to gcds: if gcd(num, B) is
    not constant, gcd(num, B**left) is divided out of both.  No block of
    ``moments._adjugate_factors`` on a mini-language spec has been found
    to need that fallback (tests/sweep_digests.py and a hypothesis search
    of zero-or-monomial lam check it), so it is for hand-built specs.
    """
    if num.is_zero():
        return num
    den = MultiPoly.const(1)
    for d in blocks:
        if d.is_term():
            num = num * d.unit_inverse() ** e
            continue
        left = e
        try:
            while left:
                num = poly_div_exact(num, d)
                left -= 1
        except ExactDivisionError:
            power = d ** left
            if not irreducible(d) and not poly_gcd(num, d).is_const():
                g = poly_gcd(num, power)
                num, power = poly_div_exact(num, g), poly_div_exact(power, g)
            den = den * power
    return num if den.is_const() else RatFunc(num, den)
