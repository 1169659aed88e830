"""Bounded moments on the Schroeder-path side (Laurent biorthogonal family).

The recurrence here is L_{n+1} = (x - b_n) L_n - a_n x L_{n-1}; its
bounded moments count height-bounded Schroeder paths of even x-length,
with the generating function a ratio of inverted L-polynomials.  The
backward extension trades (b, a) for the reciprocal pair
b'_i = 1/b_i, a'_i = a_i/(b_{i-1} b_i) and shifts the path length by
one index, counting by half-length (a Schroeder path to (2n, 0) sits at
index n).
"""

from __future__ import annotations

from typing import Tuple, Union

from . import paths
from .poly import MultiPoly
from .ratfunc import RatFunc, cf_eval, reverse_gf, series_expand, x_coeffs
from .weights import WeightSpec, laurent_reciprocal

Value = Union[MultiPoly, RatFunc]

_X = MultiPoly.variable("x")
_ONE = MultiPoly.const(1)


def laurent_poly(n: int, spec: WeightSpec) -> MultiPoly:
    """L_n from L_{n+1} = (x - b_n) L_n - a_n x L_{n-1}."""
    if n < 0:
        return MultiPoly.zero()
    prev, cur = MultiPoly.zero(), MultiPoly.const(1)
    for i in range(n):
        step = (_X - spec.b(i)) * cur
        if i >= 1:
            step = step - spec.a(i) * _X * prev
        prev, cur = cur, step
    return cur


def laurent_inverted(n: int, spec: WeightSpec) -> MultiPoly:
    p = laurent_poly(n, spec)
    out = MultiPoly.zero()
    for e, c in x_coeffs(p).items():
        out = out + c * MultiPoly.variable("x", exp=n - e)
    return out


def sigma_gf(k: int, spec: WeightSpec) -> RatFunc:
    """Generating function of the bounded Schroeder moments in x."""
    num = laurent_inverted(k, spec.shift(1))
    den = laurent_inverted(k + 1, spec)
    return RatFunc(num, den)


def sigma_cf(k: int, spec: WeightSpec) -> RatFunc:
    """Continued fraction 1/(1 - b0 x - a1 x/(1 - b1 x - ...))."""
    nums = [_ONE] + [spec.a(i) * _X for i in range(1, k + 1)]
    dens = [_ONE - spec.b(i) * _X for i in range(k + 1)]
    return cf_eval(nums, dens)


def sigma_moment(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """sigma_n: weighted count of bounded Schroeder paths to (2n, 0)."""
    if n < 0:
        raise ValueError("use sigma_negative for negative indices")
    return series_expand(sigma_gf(k, spec), n + 1)[n]


def sigma_negative_gf(k: int, spec: WeightSpec) -> RatFunc:
    """Generating function of the backward extension (sigma_{-n})_{n>=1}."""
    return reverse_gf(sigma_gf(k, spec))


def sigma_negative_cf(k: int, spec: WeightSpec) -> RatFunc:
    """Continued fraction x/(b0 - x - a1 x/(b1 - x - ...))."""
    nums = [_X] + [spec.a(i) * _X for i in range(1, k + 1)]
    dens = [spec.b(i) - _X for i in range(k + 1)]
    return cf_eval(nums, dens)


def sigma_negative(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    return series_expand(sigma_negative_gf(k, spec), n + 1)[n]


def sigma_negative_oracle(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """Brute-force side: 1/b0 times the reciprocal-weight sum over paths
    to (2(n-1), 0) of height at most k."""
    rec = laurent_reciprocal(spec)
    total = MultiPoly.zero()
    for p in paths.schroeder_paths(2 * (n - 1), k):
        total = total + paths.wt_schroeder(p, rec.b, rec.a)
    return spec.b(0).unit_inverse() * total


def schroeder_count_reciprocity(n: int, k: int) -> Tuple[Value, Value]:
    """Both sides of s_{-n} = s_{n-1} for unit weights, counting by
    half-length."""
    ones = WeightSpec("b=one,a=one", lambda i: _ONE, lambda i: _ONE)
    lhs = sigma_negative(n, k, ones)
    rhs = sigma_moment(n - 1, k, ones)
    return lhs, rhs


def kamioka_moment(p: int, spec: WeightSpec) -> MultiPoly:
    """Unbounded Schroeder moment L(x^p) for any integer p, by stabilization.

    A path to (2n, 0) never exceeds height n, so the bound 2n is safely
    stabilized for the forward side; the backward side is the reciprocal
    weighted sum over Sch_{2n} with n = -p - 1.
    """
    if p >= 0:
        k = max(2 * p, 1)
        return sigma_moment(p, k, spec)
    n = -p - 1
    rec = laurent_reciprocal(spec)
    total = MultiPoly.zero()
    for path in paths.schroeder_paths(2 * n, 2 * n if n else 1):
        total = total + paths.wt_schroeder(path, rec.b, rec.a)
    return spec.b(0).unit_inverse() * total
