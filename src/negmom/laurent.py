"""Bounded moments on the Schroeder-path side (Laurent biorthogonal family).

The recurrence L_{n+1} = (x - b_n) L_n - a_n x L_{n-1}, cut off at height
k, is the pencil x S L = T L on L = (L_0, ..., L_k) with

    S = I - subdiag(a_1..a_k)          lower bidiagonal, unit diagonal,
    T = diag(b_0..b_k) + superdiag(1)  upper bidiagonal.

Its bounded moments count height-bounded Schroeder paths of even
x-length, sigma_n = e_0^T (T S^{-1})^n e_0, and their backward extension
is sigma_{-n} = e_0^T (S T^{-1})^n e_0; the other orders, S^{-1} T and
T^{-1} S, give other sequences once k >= 1.  ``_pencil_entry`` steps the
row e_0^T through one bidiagonal factor and a substitution through the
other, O(k) products per step.  S^{-1} needs no division and T^{-1}
divides only by the b_i, so the backward side is defined when b_0..b_k
are Laurent units (single terms) and raises IllDefinedError otherwise.

The backward values are the forward ones under the reciprocal pair
b'_i = 1/b_i, a'_i = a_i/(b_{i-1} b_i), shifted by one index and
counting by half-length (a Schroeder path to (2n, 0) sits at index n).
The brute-force path sums live with the checks in ``reciprocity``; the
paper's other route, reversing the generating function, is kept in the
tests as an oracle.
"""

from __future__ import annotations

from typing import Tuple

from .moments import IllDefinedError
from .poly import MultiPoly
from .weights import WeightSpec, laurent_ones

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


def _pencil_entry(n: int, k: int, spec: WeightSpec, backward: bool) -> MultiPoly:
    """e_0^T M^n e_0 with M = T S^{-1}, or S T^{-1} when ``backward``;
    zero for k < 0, where no path fits.  Each step takes the row u to
    u T and back-substitutes through S, or backward to u S and
    forward-substitutes through T, multiplying by each b_j's inverse."""
    zero = MultiPoly.zero()
    if k < 0:
        return zero
    b = [spec.b(i) for i in range(k + 1)]
    a = [None] + [spec.a(i) for i in range(1, k + 1)]
    if backward:
        for i, bi in enumerate(b):
            if not bi.is_term():
                raise IllDefinedError(f"b_{i} = {bi.render()} is not a Laurent unit "
                                      f"for spec {spec.name}: no backward extension", bi)
        b_inv = [bi.unit_inverse() for bi in b]
    u = [MultiPoly.const(1)] + [zero] * k
    for _ in range(n):
        w = [zero] * (k + 1)
        if backward:
            for j in range(k + 1):
                v = u[j]
                if j < k:
                    v = v - a[j + 1] * u[j + 1]
                if j:
                    v = v - w[j - 1]
                w[j] = v * b_inv[j]
        else:
            for j in range(k, -1, -1):
                v = u[j] * b[j]
                if j:
                    v = v + u[j - 1]
                if j < k:
                    v = v + a[j + 1] * w[j + 1]
                w[j] = v
        u = w
    return u[0]


def sigma_moment(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """sigma_n: weighted count of bounded Schroeder paths to (2n, 0)."""
    if n < 0:
        raise ValueError("use sigma_negative for negative indices")
    return _pencil_entry(n, k, spec, backward=False)


def sigma_negative(n: int, k: int, spec: WeightSpec) -> MultiPoly:
    """sigma_{-n} = e_0^T (S T^{-1})^n e_0; needs Laurent-unit b_0..b_k."""
    if n < 1:
        raise ValueError("negative index n must be >= 1")
    return _pencil_entry(n, k, spec, backward=True)


def schroeder_count_reciprocity(n: int, k: int) -> Tuple[MultiPoly, MultiPoly]:
    """Both sides of s_{-n} = s_{n-1} for unit weights, counting by
    half-length."""
    ones = laurent_ones()
    lhs = sigma_negative(n, k, ones)
    rhs = sigma_moment(n - 1, k, ones)
    return lhs, rhs
