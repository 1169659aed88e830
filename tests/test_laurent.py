"""Schroeder-path (Laurent) moments: forward, backward, and limits."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmom import poly as P
from negmom import weights as W
from negmom.laurent import (
    schroeder_count_reciprocity,
    sigma_moment,
    sigma_negative,
)
from negmom.moments import IllDefinedError
from negmom.paths import schroeder_factors, schroeder_paths, weight_sum
from negmom.poly import MultiPoly
from negmom.ratfunc import RatFunc
from negmom.reciprocity import sigma_negative_oracle
from negmom.weights import laurent_ones, laurent_reciprocal, laurent_symbolic
from gf_oracle import cf_eval, gf_series, laurent_poly, sigma_gf, sigma_negative_gf

SYM = laurent_symbolic()
ONES = laurent_ones()
X = P.x()
ONE = MultiPoly.const(1)


def sigma_cf(k, spec):
    """Continued fraction 1/(1 - b0 x - a1 x/(1 - b1 x - ...))."""
    nums = [ONE] + [spec.a(i) * X for i in range(1, k + 1)]
    dens = [ONE - spec.b(i) * X for i in range(k + 1)]
    return cf_eval(nums, dens)


def sigma_negative_cf(k, spec):
    """Continued fraction x/(b0 - x - a1 x/(b1 - x - ...))."""
    nums = [X] + [spec.a(i) * X for i in range(1, k + 1)]
    dens = [spec.b(i) - X for i in range(k + 1)]
    return cf_eval(nums, dens)


def kamioka_moment(p, spec):
    """Unbounded Schroeder moment L(x^p) for any integer p, by stabilization.

    A path to (2n, 0) never exceeds height n, so the bound 2n is safely
    stabilized for the forward side; the backward side is the oracle's
    reciprocal-weight sum over Sch_{2n} with n = -p - 1.
    """
    if p >= 0:
        return sigma_moment(p, max(2 * p, 1), spec)
    return sigma_negative_oracle(-p, max(-2 * p - 2, 1), spec)


def test_laurent_recurrence():
    assert laurent_poly(1, SYM) == P.x() - P.b(0)
    want = (P.x() - P.b(1)) * (P.x() - P.b(0)) - P.a(1) * P.x()
    assert laurent_poly(2, SYM) == want


def test_sigma_zero_is_one():
    assert sigma_moment(0, 2, SYM) == MultiPoly.const(1)


def test_sigma_counts():
    assert sigma_moment(2, 1, ONES).as_fraction() == 5  # |Sch_4^{<=1}|


def test_sigma_gf_equals_cf_and_oracle():
    for k in range(0, 3):
        assert sigma_gf(k, SYM) == sigma_cf(k, SYM)
        ser = gf_series(sigma_gf(k, SYM), 5)
        for n in range(5):
            total = weight_sum(schroeder_paths(2 * n, k), schroeder_factors,
                               lambda f: getattr(SYM, f[0])(f[1]))
            assert ser[n] == RatFunc(total), (k, n)


def test_negative_gf_equals_cf():
    for k in range(0, 3):
        assert sigma_negative_gf(k, SYM) == sigma_negative_cf(k, SYM)


def test_negative_sigma_against_oracle_symbolic():
    for k in range(1, 4):
        for n in range(1, 5):
            assert sigma_negative(n, k, SYM) == sigma_negative_oracle(n, k, SYM)


def test_reciprocal_weights():
    rec = laurent_reciprocal(SYM)
    assert rec.b(0) == MultiPoly.variable("b", 0, -1)
    assert rec.a(1) == P.a(1) * MultiPoly.variable("b", 0, -1) * \
        MultiPoly.variable("b", 1, -1)


def test_count_reciprocity():
    for k in range(1, 4):
        for n in range(1, 6):
            lhs, rhs = schroeder_count_reciprocity(n, k)
            assert lhs == rhs, (n, k)


def test_kamioka_moments():
    assert kamioka_moment(0, SYM) == MultiPoly.const(1)
    assert kamioka_moment(1, SYM) == P.b(0) + P.a(1)
    assert kamioka_moment(-1, SYM) == MultiPoly.variable("b", 0, -1)


def test_kamioka_limit_stabilization():
    for n in range(1, 4):
        v = kamioka_moment(-n, SYM)
        for k in (max(n, 1), n + 1, n + 2):
            assert sigma_negative(n, k, SYM) == v, (n, k)


def _sigma_golden():
    """(spec, k, index, rendered value) of each line in sigma_golden.txt."""
    specs = {sp.name: sp for sp in (SYM, ONES)}
    spec = k = None
    for line in (Path(__file__).parent / "sigma_golden.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("$ "):
            name, bound = line[2:].split(" k=")
            spec, k = specs[name], int(bound)
            continue
        index, value = line.split(" ", 1)
        yield spec, k, int(index), value


def test_sigma_rendered_golden():
    # the stepped pencil renders what the reversed-gf route rendered
    rows = list(_sigma_golden())
    assert len(rows) == 12 * 13
    for spec, k, n, want in rows:
        got = sigma_moment(n, k, spec) if n >= 0 else sigma_negative(-n, k, spec)
        assert got.render() == want, (spec.name, k, n)


def _custom(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=5).map(
        lambda vs: f"custom:[{','.join(vs)}]")


_b_exprs = st.one_of(st.sampled_from(["symbolic", "one", "neg-one", "v-inverse"]),
                     _custom(["1", "-1", "2", "-3", "1/2", "-2/3", "5"]))   # units only
_a_exprs = st.one_of(st.sampled_from(["symbolic", "one", "neg-one"]),
                     _custom(["0", "1", "-1", "2", "3/4"]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stepped_sigma_matches_the_gf_oracle(data):
    # derandomized in tier-1 by the conftest profile; b is a Laurent unit
    # throughout, so both directions are defined
    k = data.draw(st.integers(0, 4), "k")
    spec = W.spec(data.draw(_b_exprs, "b"), data.draw(_a_exprs, "a"))
    forward = gf_series(sigma_gf(k, spec), 7)
    backward = gf_series(sigma_negative_gf(k, spec), 7)
    for n in range(7):
        assert RatFunc(sigma_moment(n, k, spec)) == forward[n], n
    for n in range(1, 7):
        assert RatFunc(sigma_negative(n, k, spec)) == backward[n], -n


def test_sigma_domain():
    zero_b = W.spec("zero", "one")
    # forward needs no division: the gf 1/(1 - x/(1 - 0 x)) lists ones
    assert sigma_moment(2, 1, zero_b) == MultiPoly.const(1)
    with pytest.raises(IllDefinedError):
        sigma_negative(1, 1, zero_b)
    for n in (0, 1, 3):
        assert sigma_moment(n, -1, SYM).is_zero()
    for n in (1, 3):
        assert sigma_negative(n, -1, SYM).is_zero()
    with pytest.raises(ValueError, match="^use sigma_negative for negative indices$"):
        sigma_moment(-1, 2, SYM)
    with pytest.raises(ValueError, match="^negative index n must be >= 1$"):
        sigma_negative(0, 2, SYM)
