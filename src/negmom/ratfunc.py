"""Reduced rational functions over the exact polynomial ring.

A ``RatFunc`` stores a numerator/denominator pair of ``MultiPoly``.  On
construction the pair is reduced (gcd cancelled, Laurent units absorbed
into the numerator) and the denominator is normalized to an integer
primitive polynomial whose leading coefficient is positive, so equality
of reduced forms is structural.

The series utilities treat ``x`` as the distinguished series variable;
all other variables ride along inside the coefficients.  Series and
power quotients are fraction-free (after Bareiss 1968): numerators stay
in the polynomial ring and the one known denominator, a power of den(0),
is divided out once at the end (``over_power``), never by a gcd per step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Union

from .poly import (
    ExactDivisionError,
    MultiPoly,
    X_VAR,
    poly_div_exact,
    poly_gcd,
)

Scalar = Union[int, Fraction]
PolyLike = Union[MultiPoly, int, Fraction]


def _as_poly(p: PolyLike) -> MultiPoly:
    return p if isinstance(p, MultiPoly) else MultiPoly.const(p)


class RatFunc:
    """num/den with gcd-reduced, canonically normalized denominator.

    ``reduce=False`` keeps the pair as built.  ``coprime=True`` is the
    caller's word that gcd(num, den) is constant: den's monomial content
    is still absorbed and the pair normalized, but no gcd is computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyLike, den: PolyLike = 1, reduce: bool = True,
                 coprime: bool = False):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = MultiPoly.zero(), MultiPoly.const(1)
        elif den.is_term():
            # Laurent units are invertible: absorb into the numerator
            num, den = num * den.unit_inverse(), MultiPoly.const(1)
        elif reduce:
            # den's monomial content is a unit: absorb it into the numerator,
            # leaving den a true polynomial with zero monomial content
            mono_d = den.monomial_content()
            if mono_d:
                num = num.shift_monomial(mono_d, -1)
                den = den.shift_monomial(mono_d, -1)
            g = MultiPoly.const(1) if coprime else poly_gcd(num, den)
            if not g.is_const() or g.as_fraction() != 1:
                num = poly_div_exact(num, g)
                den = poly_div_exact(den, g)
        if not den.is_const():
            cont = den.rational_content()
            _, lead = den.leading()
            if lead < 0:
                cont = -cont
            if cont != 1:
                scale = Fraction(1) / cont
                num = num * scale
                den = den * scale
        else:
            c = den.as_fraction()
            if c != 1:
                num = num * (Fraction(1) / c)
                den = MultiPoly.const(1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- basics --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_const() and self.den.as_fraction() == 1

    def as_poly(self) -> MultiPoly:
        if self.is_poly():
            return self.num
        q = poly_div_exact(self.num, self.den)  # raises when not exact
        return q

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (MultiPoly, int, Fraction)):
            return RatFunc(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        object.__setattr__(r, "num", -self.num)
        object.__setattr__(r, "den", self.den)
        return r

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-reduce first to keep the big gcd calls small
        a = RatFunc(self.num, other.den)
        b = RatFunc(other.num, self.den)
        return RatFunc(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverting zero")
            return RatFunc(self.den, self.num) ** (-n)
        result = RatFunc(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # reduced canonical forms are structural; fall back to cross product
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

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
    polynomial, a reduced RatFunc otherwise.

    Factors of d are stripped from num by trial exact division.  When a
    division fails, coprimality is tested against d itself, not against
    the power left: if gcd(num, d) is constant so is gcd(num, d**e), and
    the RatFunc is built without a gcd.  Otherwise it is reduced as usual.
    """
    if d.is_term():
        return num * d.unit_inverse() ** e
    while e and not num.is_zero():
        try:
            num = poly_div_exact(num, d)
        except ExactDivisionError:
            return RatFunc(num, d ** e, coprime=poly_gcd(num, d).is_const())
        e -= 1
    return num


def series_expand(f: RatFunc, n_terms: int) -> List[Union[MultiPoly, RatFunc]]:
    """First ``n_terms`` power-series coefficients of f around x = 0.

    With den = d0 + d1 x + ... and num = a0 + a1 x + ..., the coefficients
    c_n satisfy d0 c_n = a_n - sum_j d_j c_{n-j}.  When d0 is a Laurent
    unit each c_n is that right side times d0's inverse, a MultiPoly.
    Otherwise the expansion is fraction-free: N_n = c_n d0^{n+1} obeys

        N_n = a_n d0^n - sum_j d_j N_{n-j} d0^{j-1}

    in the polynomial ring, and each c_n = N_n / d0^{n+1} is divided out
    once by ``over_power``, so c_n is a MultiPoly when it is polynomial and
    a reduced RatFunc otherwise.
    """
    den_u = x_coeffs(f.den)
    num_u = x_coeffs(f.num)
    if min(den_u, default=0) < 0 or min(num_u, default=0) < 0:
        raise ZeroDivisionError("pole at x = 0: negative power of x")
    d0 = den_u.pop(0, None)
    if d0 is None:
        raise ZeroDivisionError("denominator vanishes at x = 0")
    zero = MultiPoly.zero()
    if d0.is_term():
        inv0 = d0.unit_inverse()
        coeffs: List[MultiPoly] = []
        for n in range(n_terms):
            acc = num_u.get(n, zero)
            for j, dj in den_u.items():
                if j <= n:
                    acc = acc - dj * coeffs[n - j]
            coeffs.append(acc * inv0)
        return coeffs
    powers = [MultiPoly.const(1)]          # powers[i] = d0^i
    scaled: List[MultiPoly] = []           # scaled[n] = N_n
    out: List[Union[MultiPoly, RatFunc]] = []
    for n in range(n_terms):
        if n:
            powers.append(powers[-1] * d0)
        acc = num_u[n] * powers[n] if n in num_u else zero
        for j, dj in den_u.items():
            if j <= n:
                acc = acc - dj * scaled[n - j] * powers[j - 1]
        scaled.append(acc)
        out.append(over_power(acc, d0, n + 1))
    return out


def invert_x(p: MultiPoly, degree: int) -> MultiPoly:
    """x**degree * p(1/x): reverse the x-exponents against ``degree``."""
    out = MultiPoly.zero()
    for e, c in x_coeffs(p).items():
        out = out + c * MultiPoly.variable("x", exp=degree - e)
    return out


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

    bottom-up into a reduced rational function.  Note the built-in
    subtraction: signs belong to the partial numerators.
    """
    nums = [_as_poly(p) for p in partial_numerators]
    dens = [_as_poly(p) for p in partial_denominators]
    if len(nums) != len(dens) or not nums:
        raise ValueError("need matching, nonempty numerator/denominator lists")
    if dens[-1].is_zero():
        raise ZeroDivisionError(f"zero denominator at depth {len(dens)}")
    # maintain value = N/D without reduction; the recurrences keep them coprime
    N, D = nums[-1], dens[-1]
    for i in range(len(nums) - 2, -1, -1):
        N, D = nums[i] * D, dens[i] * D - N
        if D.is_zero():
            raise ZeroDivisionError(f"zero denominator while collapsing at depth {i + 1}")
    return RatFunc(N, D)
