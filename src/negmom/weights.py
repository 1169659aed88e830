"""Coefficient-sequence specifications for the moment machinery.

A ``WeightSpec`` is a pair of generators i -> MultiPoly: the diagonal
sequence b (indexed from 0) and the subdiagonal sequence lam (indexed
from 1).  For the Schroeder/Laurent side the second generator plays the
role of the a-sequence.  Specs compare and hash by name, and every
factory gives a distinct canonical name; two specs built by hand with one
name are equal but may hold different weights, so nothing caches on a
spec.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .poly import MultiPoly

Gen = Callable[[int], MultiPoly]


def _const_gen(c) -> Gen:
    val = MultiPoly.const(c)
    return lambda i: val


def _sym_gen(family: str) -> Gen:
    return lambda i: MultiPoly.variable(family, i)


class WeightSpec:
    """Weights b_i (i >= 0) and lam_i (i >= 1) as generators.  Identities
    that compare index-reversed weights take ``reversed(K)``, the package's
    only index reversal, so numeric weights reverse like symbolic ones.
    A spec is immutable: its attributes cannot be assigned or deleted."""
    __slots__ = ("name", "b", "lam")

    def __init__(self, name: str, b: Gen, lam: Gen):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of an immutable WeightSpec")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of an immutable WeightSpec")

    def __repr__(self):
        return f"WeightSpec({self.name!r})"

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, WeightSpec) and self.name == other.name

    def shift(self, j: int) -> "WeightSpec":
        """Drop the first j entries of both sequences."""
        if j == 0:
            return self
        b, lam = self.b, self.lam
        return WeightSpec(f"{self.name}<<{j}", lambda i: b(i + j), lambda i: lam(i + j))

    def reversed(self, K: int) -> "WeightSpec":
        """Index reversal at bound K: b_i -> b_{K-i}, lam_i -> lam_{K+1-i};
        the package's only index reversal, applied before any computation."""
        b, lam = self.b, self.lam
        return WeightSpec(f"reversed{K}({self.name})",
                          lambda i: b(K - i), lambda i: lam(K + 1 - i))

    # a-sequence alias for the Laurent side
    @property
    def a(self) -> Gen:
        return self.lam


# -- named presets -------------------------------------------------------------

def spec(b_expr: str, lam_expr: str) -> WeightSpec:
    """Build a spec from two mini-language expressions (see parse_gen)."""
    return WeightSpec(f"b={b_expr},lam={lam_expr}",
                      parse_gen(b_expr, "b"), parse_gen(lam_expr, "lam"))


def symbolic() -> WeightSpec:
    return spec("symbolic", "symbolic")


def zero_one() -> WeightSpec:
    return spec("zero", "one")


def one_one() -> WeightSpec:
    return spec("one", "one")


def v_inverse() -> WeightSpec:
    """b_i = -1/V_i and lam_i = 1/(V_i V_{i-1})."""
    return spec("v-inverse", "v-inverse")


def dyck_v() -> WeightSpec:
    """b = 0 with lam_i = 1/(V_{i-1} V_i)."""
    return spec("zero", "dyck-v")


def b_special(ell: int) -> WeightSpec:
    """b_i = 2*(-1)^i for i < ell and (-1)^i beyond, with lam = -1."""
    return spec(f"b-special:{ell}", "neg-one")


def av_lambda() -> WeightSpec:
    """b = 0 with lam_{2i-1} = 1/(V_i A_i), lam_{2i} = 1/(A_i V_{i+1})."""
    def lam_fn(i: int) -> MultiPoly:
        if i % 2 == 1:
            t = (i + 1) // 2
            m = MultiPoly.variable("V", t, -1) * MultiPoly.variable("A", t, -1)
        else:
            t = i // 2
            m = MultiPoly.variable("A", t, -1) * MultiPoly.variable("V", t + 1, -1)
        return m
    return WeightSpec("b=zero,lam=av", parse_gen("zero", "b"), lam_fn)


def doubled_even(spec_: WeightSpec | None = None) -> WeightSpec:
    """b'_i = lam_{2i} + lam_{2i+1} (lam_0 = 0), lam'_i = lam_{2i-1} lam_{2i}."""
    base = symbolic() if spec_ is None else spec_

    def b_fn(i: int) -> MultiPoly:
        first = MultiPoly.zero() if i == 0 else base.lam(2 * i)
        return first + base.lam(2 * i + 1)

    def lam_fn(i: int) -> MultiPoly:
        return base.lam(2 * i - 1) * base.lam(2 * i)

    return WeightSpec(f"doubled-even({base.name})", b_fn, lam_fn)


def doubled_odd(spec_: WeightSpec | None = None) -> WeightSpec:
    """b''_i = lam_{2i+1} + lam_{2i+2}, lam''_i = lam_{2i} lam_{2i+1}."""
    base = symbolic() if spec_ is None else spec_

    def b_fn(i: int) -> MultiPoly:
        return base.lam(2 * i + 1) + base.lam(2 * i + 2)

    def lam_fn(i: int) -> MultiPoly:
        return base.lam(2 * i) * base.lam(2 * i + 1)

    return WeightSpec(f"doubled-odd({base.name})", b_fn, lam_fn)


def laurent_symbolic() -> WeightSpec:
    """Symbolic (b, a) pair for the Schroeder side."""
    return WeightSpec("b=symbolic,a=symbolic", _sym_gen("b"), _sym_gen("a"))


def laurent_ones() -> WeightSpec:
    return WeightSpec("b=one,a=one", _const_gen(1), _const_gen(1))


def laurent_reciprocal(spec_: WeightSpec) -> WeightSpec:
    """b'_i = 1/b_i and a'_i = a_i/(b_{i-1} b_i); needs invertible b_i."""
    b, a = spec_.b, spec_.lam

    def b_fn(i: int) -> MultiPoly:
        return b(i).unit_inverse()

    def a_fn(i: int) -> MultiPoly:
        return a(i) * b(i - 1).unit_inverse() * b(i).unit_inverse()

    return WeightSpec(f"reciprocal({spec_.name})", b_fn, a_fn)


# -- mini-language -----------------------------------------------------------------

def parse_gen(expr: str, family: str) -> Gen:
    """Parse one sequence expression of the CLI mini-language.

    Grammar: zero | one | neg-one | bsq | b-special:<ell> | v-inverse |
    dyck-v | custom:[c1,c2,...] | symbolic.  Custom lists are finite
    prefixes of rationals, continued symbolically past their length; an
    empty entry is an error, and custom:[] is all symbolic.
    """
    expr = expr.strip()
    if expr == "zero":
        return _const_gen(0)
    if expr == "one":
        return _const_gen(1)
    if expr == "neg-one":
        return _const_gen(-1)
    if expr == "symbolic":
        return _sym_gen(family)
    if expr == "bsq":
        if family != "lam":
            raise ValueError("bsq is a lambda-sequence expression")
        return lambda i: MultiPoly.variable("b", i - 1) * MultiPoly.variable("b", i)
    if expr == "v-inverse":
        if family == "b":
            return lambda i: -MultiPoly.variable("V", i, -1)
        return lambda i: MultiPoly.variable("V", i, -1) * MultiPoly.variable("V", i - 1, -1)
    if expr == "dyck-v":
        if family != "lam":
            raise ValueError("dyck-v is a lambda-sequence expression")
        return lambda i: MultiPoly.variable("V", i - 1, -1) * MultiPoly.variable("V", i, -1)
    if expr.startswith("b-special:"):
        ell = int(expr.split(":", 1)[1])
        if ell < 0:
            raise ValueError("b-special needs a nonnegative cutoff")

        def fn(i: int) -> MultiPoly:
            mag = 2 if i < ell else 1
            return MultiPoly.const(mag if i % 2 == 0 else -mag)

        return fn
    if expr.startswith("custom:[") and expr.endswith("]"):
        body = expr[len("custom:["):-1]
        toks = body.split(",") if body.strip() else []
        if not all(tok.strip() for tok in toks):
            raise ValueError(f"empty entry in {expr!r}")
        try:
            vals: Sequence[Fraction] = tuple(Fraction(tok) for tok in toks)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {expr!r}") from None
        sym = _sym_gen(family)
        lo = 1 if family in ("lam", "a") else 0

        def fn(i: int) -> MultiPoly:
            pos = i - lo
            if 0 <= pos < len(vals):
                return MultiPoly.const(vals[pos])
            return sym(i)

        return fn
    raise ValueError(f"cannot parse sequence expression {expr!r}")
