"""Reduced rational functions over the exact polynomial ring.

A ``RatFunc`` stores a numerator/denominator pair of ``MultiPoly``.  On
construction the pair is reduced (gcd cancelled, Laurent units absorbed
into the numerator) and the denominator is normalized to an integer
primitive polynomial whose leading coefficient is positive, so equality
of reduced forms is structural.

The series utilities treat ``x`` as the distinguished series variable;
all other variables ride along inside the coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .poly import (
    ExactDivisionError,
    MultiPoly,
    X_VAR,
    poly_div_exact,
    poly_gcd,
)

Scalar = Union[int, Fraction]
PolyLike = Union[MultiPoly, int, Fraction]


class SeriesCoefficientError(ArithmeticError):
    """A series coefficient left the polynomial ring."""


def _as_poly(p: PolyLike) -> MultiPoly:
    return p if isinstance(p, MultiPoly) else MultiPoly.const(p)


class RatFunc:
    """num/den with gcd-reduced, canonically normalized denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyLike, den: PolyLike = 1, reduce: bool = True):
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
            g = poly_gcd(num, den)
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

    def as_poly_or_self(self):
        try:
            return self.as_poly()
        except (ExactDivisionError, ZeroDivisionError):
            return self

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

    def subs(self, assignment) -> "RatFunc":
        den = self.den.subs(assignment)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes after substitution")
        return RatFunc(self.num.subs(assignment), den)

    def reverse_index(self, n: int) -> "RatFunc":
        return RatFunc(self.num.reverse_index(n), self.den.reverse_index(n), reduce=False)

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


def series_expand(f: RatFunc, n_terms: int) -> List[MultiPoly]:
    """First ``n_terms`` power-series coefficients of f around x = 0.

    Requires den(0) (the x-constant term) to be invertible in the
    Laurent ring, or the coefficients to stay polynomial; otherwise
    SeriesCoefficientError is raised.  Use ``series_expand_rat`` when the
    coefficients are genuinely rational in the remaining variables.
    """
    out: List[MultiPoly] = []
    for c in _series_stream(f, n_terms, rational=False):
        out.append(c)
    return out


def series_expand_rat(f: RatFunc, n_terms: int) -> List[RatFunc]:
    """Series coefficients as rational functions of the other variables."""
    return list(_series_stream(f, n_terms, rational=True))


def _series_stream(f: RatFunc, n_terms: int, rational: bool):
    den_u = x_coeffs(f.den)
    num_u = x_coeffs(f.num)
    if min(den_u, default=0) < 0 or min(num_u, default=0) < 0:
        raise ZeroDivisionError("pole at x = 0: negative power of x")
    d0 = den_u.get(0)
    if d0 is None or d0.is_zero():
        raise ZeroDivisionError("denominator vanishes at x = 0")
    if rational:
        inv0 = RatFunc(1, d0)
        coeffs: List[RatFunc] = []
        for n in range(n_terms):
            acc = RatFunc(num_u.get(n, MultiPoly.zero()))
            for j in range(1, n + 1):
                dj = den_u.get(j)
                if dj is not None:
                    acc = acc - RatFunc(dj) * coeffs[n - j]
            c = acc * inv0
            coeffs.append(c)
            yield c
        return
    unit = d0.is_term()
    inv_unit = d0.unit_inverse() if unit else None
    pcoeffs: List[MultiPoly] = []
    for n in range(n_terms):
        acc = num_u.get(n, MultiPoly.zero())
        for j in range(1, n + 1):
            dj = den_u.get(j)
            if dj is not None:
                acc = acc - dj * pcoeffs[n - j]
        if unit:
            c = acc * inv_unit
        else:
            try:
                c = poly_div_exact(acc, d0)
            except ExactDivisionError as exc:
                raise SeriesCoefficientError(
                    f"series coefficient {n} is not polynomial") from exc
        pcoeffs.append(c)
        yield c


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


def double_reversal(f: RatFunc) -> RatFunc:
    """Generating function of the fully reversed sequence (index 0 kept).

    Applying this twice recovers ``f`` exactly.
    """
    f0 = series_expand_rat(f, 1)[0]
    rev = reverse_gf(f)
    return RatFunc(f0.num) / RatFunc(f0.den) + rev


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
