"""Bounded moments on the Schroeder-path side (Laurent biorthogonal family).

The recurrence here is L_{n+1} = (x - b_n) L_n - a_n x L_{n-1}; its
bounded moments count height-bounded Schroeder paths of even x-length,
with the generating function a ratio of inverted L-polynomials.  The
backward extension trades (b, a) for the reciprocal pair
b'_i = 1/b_i, a'_i = a_i/(b_{i-1} b_i) and shifts the path length by
one index, counting by half-length (a Schroeder path to (2n, 0) sits at
index n).  The brute-force path sums live with the checks in
``reciprocity``.
"""

from __future__ import annotations

from typing import Tuple, Union

from .poly import MultiPoly
from .ratfunc import RatFunc, invert_x, reverse_gf, series_expand
from .weights import WeightSpec, laurent_ones

Value = Union[MultiPoly, RatFunc]

_X = MultiPoly.variable("x")


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
    """L*_n(x) = x^n L_n(1/x)."""
    return invert_x(laurent_poly(n, spec), n)


def sigma_gf(k: int, spec: WeightSpec) -> RatFunc:
    """Generating function of the bounded Schroeder moments in x."""
    num = laurent_inverted(k, spec.shift(1))
    den = laurent_inverted(k + 1, spec)
    return RatFunc(num, den)


def sigma_moment(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """sigma_n: weighted count of bounded Schroeder paths to (2n, 0)."""
    if n < 0:
        raise ValueError("use sigma_negative for negative indices")
    return series_expand(sigma_gf(k, spec), n + 1)[n]


def sigma_negative_gf(k: int, spec: WeightSpec) -> RatFunc:
    """Generating function of the backward extension (sigma_{-n})_{n>=1}."""
    return reverse_gf(sigma_gf(k, spec))


def sigma_negative(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    return series_expand(sigma_negative_gf(k, spec), n + 1)[n]


def schroeder_count_reciprocity(n: int, k: int) -> Tuple[Value, Value]:
    """Both sides of s_{-n} = s_{n-1} for unit weights, counting by
    half-length."""
    ones = laurent_ones()
    lhs = sigma_negative(n, k, ones)
    rhs = sigma_moment(n - 1, k, ones)
    return lhs, rhs
