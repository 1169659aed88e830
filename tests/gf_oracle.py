"""The paper's generating-function route to bounded and negative moments,
kept on the test side as an oracle for the stepped routes of ``negmom``:
adj(A) for the orthogonal moments of ``negmom.moments`` and the bidiagonal
pencil x S L = T L for the Schroeder moments of ``negmom.laurent``.  The
two routes share nothing above the polynomial ring.

The forward gf of (mu_{n,r,s}^{<=k})_{n>=0} is a ratio of inverted
orthogonal polynomials; reversing it, f(x) -> -f(1/x), gives the gf of
(mu_{-n,r,s}^{<=k})_{n>=1}, -x P_r P^{(s+1)}_{k-s} / P_{k+1}.  Its
denominator's constant term P_{k+1}(0) is seldom a unit, so ``gf_series``
expands fraction-free and returns each coefficient as an unreduced pair.

On the Schroeder side the gf of (sigma_n^{<=k})_{n>=0} is
L*^{(1)}_k / L*_{k+1}, a ratio of inverted Laurent polynomials
(``sigma_gf``), and ``reverse_gf`` turns it into the gf of
(sigma_{-n}^{<=k})_{n>=1} (``sigma_negative_gf``).  Its den(0) is
b_0 .. b_k up to sign, a Laurent unit for the specs the pencil steps
backward, so ``series_expand`` expands it.
"""

from typing import List

from negmom import poly as P
from negmom.laurent import laurent_poly
from negmom.moments import IllDefinedError, orth_poly
from negmom.poly import MultiPoly, poly_sum
from negmom.ratfunc import RatFunc, cf_eval, x_coeffs

_X = P.x()
_ONE = MultiPoly.const(1)


# -- index reversal ------------------------------------------------------------

def deg_x(p):
    """Degree in x (coefficients in the other variables); -1 for zero."""
    u = x_coeffs(p)
    return max(u) if u else -1


def invert_x(p, degree):
    """x**degree * p(1/x): reverse the x-exponents against ``degree``."""
    return poly_sum(c * MultiPoly.variable("x", exp=degree - e)
                    for e, c in x_coeffs(p).items())


class ReversalError(ValueError):
    """Raised when a generating function admits no index reversal."""


def reverse_gf(f):
    """Reverse a rational generating function to its negative-index side.

    For f = P/Q with deg P <= deg Q, Q(0) != 0 (and x | P when the
    degrees tie), returns -P(1/x)/Q(1/x) cleared to a rational function
    whose series lists the backward extension f_{-1}, f_{-2}, ... of the
    sequence; the result's series has zero constant term.
    """
    num_p, den_q = f.num, f.den
    dp, dq = deg_x(num_p), deg_x(den_q)
    qu = x_coeffs(den_q)
    if 0 not in qu or qu[0].is_zero():
        raise ReversalError("denominator vanishes at x = 0")
    if min(x_coeffs(num_p), default=0) < 0 or min(qu) < 0:
        raise ReversalError("Laurent powers of x are not reversible")
    if f.is_zero():
        return f
    if dp > dq:
        raise ReversalError("numerator degree exceeds denominator degree: "
                            "no homogeneous linear recurrence")
    if dp == dq and not x_coeffs(num_p).get(0, MultiPoly.zero()).is_zero():
        raise ReversalError("degree tie with nonzero constant term: "
                            "no homogeneous linear recurrence")
    return RatFunc(-invert_x(num_p, dq), invert_x(den_q, dq))


# -- orthogonal side -------------------------------------------------------------

def inverted_poly(n, spec):
    """P*_n(x) = x^n P_n(1/x)."""
    return invert_x(orth_poly(n, spec), n)


def _lam_product(lo, hi, spec):
    prod = _ONE
    for i in range(lo, hi + 1):
        prod = prod * spec.lam(i)
    return prod


def moment_gf(r, s, k, spec):
    """Rational gf of (mu_{n,r,s}^{<=k})_{n>=0} in x."""
    if not (0 <= r <= k and 0 <= s <= k):
        raise IndexError("heights must lie in [0, k]")
    den = inverted_poly(k + 1, spec)
    if r <= s:
        num = _X ** (s - r) * inverted_poly(r, spec) * inverted_poly(k - s, spec.shift(s + 1))
    else:
        num = _X ** (r - s) * inverted_poly(s, spec) \
            * inverted_poly(k - r, spec.shift(r + 1)) * _lam_product(s + 1, r, spec)
    return RatFunc(num, den)


def _require_backward(k, spec):
    """P_{k+1}(0) != 0, evaluated from the orthogonal polynomial itself."""
    if orth_poly(k + 1, spec).subs({P.X_VAR: 0}).is_zero():
        raise IllDefinedError(f"P_{k + 1}(0) = 0 for spec {spec.name}")


def negative_moment_gf(r, s, k, spec):
    """Rational gf of (mu_{-n,r,s}^{<=k})_{n>=1} in x, the forward gf
    reversed: -x P_r P^{(s+1)}_{k-s} / P_{k+1} (for r > s:
    -x P_s P^{(r+1)}_{k-r} lam_{s+1}..lam_r / P_{k+1})."""
    _require_backward(k, spec)
    if not (0 <= r <= k and 0 <= s <= k):
        raise IndexError("heights must lie in [0, k]")
    den = orth_poly(k + 1, spec)
    if r <= s:
        num = -_X * orth_poly(r, spec) * orth_poly(k - s, spec.shift(s + 1))
    else:
        num = -_X * orth_poly(s, spec) * orth_poly(k - r, spec.shift(r + 1)) \
            * _lam_product(s + 1, r, spec)
    return RatFunc(num, den)


def viennot_cf(k, spec):
    """Depth-(k+1) continued fraction for the forward moment series."""
    x2 = _X * _X
    nums = [_ONE] + [spec.lam(i) * x2 for i in range(1, k + 1)]
    dens = [_ONE - spec.b(i) * _X for i in range(k + 1)]
    return cf_eval(nums, dens)


def negative_cf(k, spec):
    """Continued fraction -x/(x - b0 - lam1/(x - b1 - ...)) for the backward series."""
    _require_backward(k, spec)
    nums = [-_X] + [spec.lam(i) for i in range(1, k + 1)]
    dens = [_X - spec.b(i) for i in range(k + 1)]
    return cf_eval(nums, dens)


def gf_series(f, n_terms) -> List[RatFunc]:
    """The first n_terms series coefficients of f at x = 0 as unreduced
    pairs N_n / d0^(n+1), for any nonzero d0 = den(0):
    N_n = a_n d0^n - sum_j d_j N_{n-j} d0^(j-1) stays in the polynomial
    ring (Bareiss 1968)."""
    num_u, den_u = x_coeffs(f.num), x_coeffs(f.den)
    d0 = den_u.pop(0)
    powers, scaled = [_ONE], []
    for n in range(n_terms):
        if n:
            powers.append(powers[-1] * d0)
        acc = num_u[n] * powers[n] if n in num_u else MultiPoly.zero()
        for j, dj in den_u.items():
            if j <= n:
                acc = acc - dj * scaled[n - j] * powers[j - 1]
        scaled.append(acc)
    return [RatFunc(N, powers[n] * d0) for n, N in enumerate(scaled)]


# -- Schroeder side ----------------------------------------------------------------

def laurent_inverted(n, spec):
    """L*_n(x) = x^n L_n(1/x)."""
    return invert_x(laurent_poly(n, spec), n)


def sigma_gf(k, spec):
    """Generating function of the bounded Schroeder moments in x."""
    return RatFunc(laurent_inverted(k, spec.shift(1)), laurent_inverted(k + 1, spec))


def sigma_negative_gf(k, spec):
    """Generating function of the backward extension (sigma_{-n})_{n>=1}."""
    return reverse_gf(sigma_gf(k, spec))
