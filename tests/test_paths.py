"""Brute-force enumerators: frozen counts, weights, bijections, invariants."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negmom import poly as P
from negmom.paths import (
    _pv_ok,
    alt_sequences,
    count_alt,
    encode_motzkin,
    encode_rpp,
    encode_seq,
    motzkin_factors,
    motzkin_paths,
    pv_sequences,
    rpp_factors,
    rpp_fillings,
    rpp_total,
    schroeder_factors,
    schroeder_paths,
    seq_av_factors,
    seq_v_factors,
    staircase_skew_cells,
    weight_sum,
)
from negmom.poly import MultiPoly
from negmom.weights import WeightSpec, laurent_symbolic, symbolic


def test_motzkin_base_cases():
    assert list(motzkin_paths(0, 0, 0, 5)) == [()]
    two = motzkin_paths(2, 0, 0, 1)
    assert sorted(encode_motzkin(p) for p in two) == ["HH", "UD"]
    assert len(list(motzkin_paths(4, 0, 0))) == 9  # fourth Motzkin number


def test_motzkin_bounded_monotone_and_stable():
    # counts increase with the bound and stabilize at k = n
    for n in range(0, 7):
        prev = -1
        for k in range(0, n + 2):
            c = len(list(motzkin_paths(n, 0, 0, k)))
            assert c >= prev
            prev = c
        assert len(list(motzkin_paths(n, 0, 0, n))) == len(list(motzkin_paths(n, 0, 0)))


def test_motzkin_duplicate_free():
    for n in range(0, 6):
        for k in (1, 2, None):
            ps = list(motzkin_paths(n, 1, 0, k))
            assert len(ps) == len(set(ps))


def spec_value(spec):
    """A factor (family, i) valued as ``spec.family(i)``."""
    return lambda f: getattr(spec, f[0])(f[1])


def motzkin_weight(steps, spec, r=0):
    return weight_sum((steps,), lambda p: motzkin_factors(p, r), spec_value(spec))


def test_motzkin_weights():
    spec = symbolic()
    (ud,) = [p for p in motzkin_paths(2, 0, 0, 2) if p == ("U", "D")]
    assert motzkin_factors(ud) == [("lam", 1)]
    assert motzkin_weight(ud, spec) == P.lam(1)
    (hh,) = [p for p in motzkin_paths(2, 0, 0, 2) if p == ("H", "H")]
    assert motzkin_weight(hh, spec) == P.b(0) ** 2
    assert motzkin_weight((), spec) == MultiPoly.const(1)
    assert motzkin_factors(("H", "D", "U", "H"), 1) == [("b", 1), ("lam", 1), ("b", 1)]


def point_factors(steps, r=0):
    """The point weight: (b, j) for every lattice point (i, j) of the path."""
    out = [("b", r)]
    for step in steps:
        out.append(("b", out[-1][1] + {"U": 1, "H": 0, "D": -1}[step]))
    return out


def test_point_weight_relation():
    # wt(pi; b, b^2) = (b0..b_{r-1} / b0..b_s) pwt(pi; b) on small grids
    from negmom.weights import spec
    bsq = spec("symbolic", "bsq")   # lam_i = b_{i-1} * b_i
    assert point_factors(("U", "H", "D"), 1) == [("b", 1), ("b", 2), ("b", 2), ("b", 1)]
    for n in range(0, 6):
        for r in range(0, 3):
            for s in range(0, 3):
                for p in motzkin_paths(n, r, s, 3):
                    lhs = motzkin_weight(p, bsq, r)
                    ratio_num = MultiPoly.const(1)
                    for t in range(r):
                        ratio_num = ratio_num * P.b(t)
                    ratio_den = MultiPoly.const(1)
                    for t in range(s + 1):
                        ratio_den = ratio_den * P.b(t)
                    pwt = weight_sum((p,), lambda p: point_factors(p, r))
                    assert lhs * ratio_den == ratio_num * pwt


def test_schroeder_counts():
    assert len(list(schroeder_paths(2, 3))) == 2  # UD and H2
    five = list(schroeder_paths(4, 1))
    assert len(five) == 5
    assert ("U", "U", "D", "D") not in five
    assert list(schroeder_paths(3, 2)) == []  # odd displacement unreachable


def test_schroeder_weights():
    ls = laurent_symbolic()
    assert schroeder_factors(("U", "H2", "D")) == [("b", 1), ("a", 1)]
    w = weight_sum([("U", "H2", "D")], schroeder_factors, spec_value(ls))
    assert w == P.b(1) * P.a(1)
    assert weight_sum([("U", "H2", "D")], schroeder_factors) == w   # variables by default


def naive_weight_sum(objects, factors, value):
    """The reference: each object's product, added to a running sum."""
    total = MultiPoly.zero()
    for obj in objects:
        w = MultiPoly.const(1)
        for f in factors(obj):
            w = w * value(f)
        total = total + w
    return total


# b numeric (b1 = 0 is a zero factor), lam = a Laurent: V_i^-1 * A_i
MIXED = WeightSpec("mixed", lambda i: MultiPoly.const(Fraction(i - 1, 2)),
                   lambda i: MultiPoly.variable("V", i, -1) * MultiPoly.variable("A", i))


@st.composite
def factor_families(draw):
    """Objects as factor lists, drawn with repeats from a small pool and
    each one shuffled, so equal multisets arrive in different orders."""
    factor = st.tuples(st.sampled_from(("b", "lam", "a")), st.integers(1, 3))
    pool = draw(st.lists(st.lists(factor, max_size=4), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=10))
    return [draw(st.permutations(obj)) for obj in picks]


@settings(max_examples=150, deadline=None)
@given(factor_families(), st.booleans())
def test_weight_sum_matches_running_sum(objects, by_spec):
    base = spec_value(MIXED) if by_spec else (lambda f: MultiPoly.variable(*f))
    calls = []

    def value(f):
        calls.append(f)
        return base(f)

    got = weight_sum(iter(objects), list, value)
    assert got == naive_weight_sum(objects, list, base)
    assert len(calls) == len({f for obj in objects for f in obj})   # once per factor
    if not by_spec:
        assert weight_sum(objects, list) == got   # by default a factor is its variable


def test_weight_sum_edges():
    assert weight_sum([], seq_v_factors) == MultiPoly.zero()          # empty family
    assert weight_sum([(), ()], seq_v_factors) == MultiPoly.const(2)  # no factors: weight 1
    assert weight_sum([(1, 2), (2, 1), (1, 2)], seq_v_factors) == 3 * P.V(1) * P.V(2)
    rows = [[("b", 2), ("lam", 1)], [("lam", 1), ("b", 2)], [("b", 1)]]   # b1 = 0
    assert weight_sum(rows, list, spec_value(MIXED)) == P.V(1) ** -1 * P.A(1)


def is_pv_sequence(seq, ell, k, modified=False):
    """Membership oracle: entries in [0, k], and the peak/valley rule at
    every position of the sequence padded with 0 on both sides."""
    if any(v < 0 or v > k for v in seq):
        return False
    padded = (0,) + tuple(seq) + (0,)
    return all(_pv_ok(ell, modified, padded[i - 1], padded[i], padded[i + 1])
               for i in range(1, len(padded) - 1))


def test_pv_membership_example():
    assert is_pv_sequence((3, 2, 7, 0, 1), 2, 7)
    assert not is_pv_sequence((2, 2), 2, 7)


def test_pv_two_bound_one():
    # only one 2-PV sequence of each odd length at bound 1
    for n in range(0, 4):
        seqs = list(pv_sequences(2, 2 * n + 1, 1))
        assert seqs == [tuple(1 if i % 2 == 0 else 0 for i in range(2 * n + 1))]
    assert list(pv_sequences(2, 4, 1)) == []


def test_pv_empty_conventions():
    assert list(pv_sequences(2, 0, 3)) == [()]
    assert list(pv_sequences(3, 0, 3)) == [()]
    # boundary-pinned variant applies the rules to the padding values
    assert list(pv_sequences(3, 0, 3, r=0, s=0)) == []
    assert list(pv_sequences(3, 0, 3, modified=True, r=0, s=0)) == [()]
    assert list(pv_sequences(3, 0, 3, r=1, s=0)) == [()]


def test_pv_rs_matches_plain_for_positive_length():
    for n in range(1, 6):
        for k in (2, 3, 5):
            assert list(pv_sequences(3, n, k)) == list(pv_sequences(3, n, k, r=0, s=0))
            assert list(pv_sequences(3, n, k, modified=True)) == \
                list(pv_sequences(3, n, k, modified=True, r=0, s=0))


def test_alt_counts():
    assert count_alt(1, 5) == 5
    assert count_alt(3, 2) == 5
    assert sorted(alt_sequences(3, 2)) == [
        (1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
    down = alt_sequences(3, 2, down_first=True)
    assert sorted(sum(s) for s in down) == [3, 4, 4, 5, 6]


def test_alt_endpoints():
    seqs = list(alt_sequences(3, 3, endpoints=(1, 2)))
    assert all(s[0] == 1 and s[-1] == 2 for s in seqs)
    assert list(alt_sequences(1, 3, endpoints=(1, 2))) == []
    assert list(alt_sequences(1, 3, endpoints=(2, 2))) == [(2,)]
    assert list(alt_sequences(0, 3)) == [()]
    assert list(alt_sequences(0, 3, endpoints=(1, 1))) == []


def pv_to_alt(seq, k):
    """Entrywise a_i -> k - floor(a_i / 2) on odd-length 2-PV input."""
    if len(seq) % 2 == 0 or not is_pv_sequence(seq, 2, 2 * k - 1):
        raise ValueError("input is not an odd-length 2-PV sequence with bound 2k-1")
    return tuple(k - v // 2 for v in seq)


def alt_to_pv(seq, k):
    """Inverse map: odd positions to 2(k-a)+1, even positions to 2(k-a)."""
    if len(seq) % 2 == 0:
        raise ValueError("length must be odd")
    out = []
    for pos, v in enumerate(seq, start=1):
        out.append(2 * (k - v) + 1 if pos % 2 == 1 else 2 * (k - v))
    return tuple(out)


def test_pv_alt_bijection():
    assert pv_to_alt((1, 0, 1), 1) == (1, 1, 1)
    assert pv_to_alt((3, 2, 7, 0, 1), 4) == (3, 3, 1, 4, 4)
    with pytest.raises(ValueError):
        pv_to_alt((2, 2), 4)
    for n in range(0, 3):
        for k in (1, 2, 3):
            pvs = list(pv_sequences(2, 2 * n + 1, 2 * k - 1))
            alts = alt_sequences(2 * n + 1, k)
            image = [pv_to_alt(p, k) for p in pvs]
            assert sorted(image) == sorted(alts)
            for p in pvs:
                assert alt_to_pv(pv_to_alt(p, k), k) == p


def test_sequence_weights():
    assert weight_sum([()], seq_v_factors) == MultiPoly.const(1)
    assert weight_sum([(1, 0, 1)], seq_v_factors) == P.V(1) ** 2 * P.V(0)
    assert seq_av_factors((3, 3, 1)) == [("V", 3), ("A", 3), ("V", 1)]
    assert (weight_sum([(3, 3, 1, 4, 4)], seq_av_factors)
            == P.V(3) * P.A(3) * P.V(1) * P.A(4) * P.V(4))
    with pytest.raises(ValueError):
        seq_av_factors((1, 2))
    with pytest.raises(ValueError):
        weight_sum([(1, 2)], seq_av_factors)


def test_encodings():
    assert encode_seq((1, 0, 1)) == "(1,0,1)"
    assert encode_motzkin(("U", "H", "D")) == "UHD"


def test_staircase_cells():
    assert staircase_skew_cells(1, 1) == [(1, 1), (1, 2), (2, 1)]
    # skew example: inner staircase removes leading cells
    cells = staircase_skew_cells(2, 1)
    assert (1, 1) not in cells and (1, 2) in cells


def test_rpp_small_census():
    # shape (2,1), entries <= 1: totals 0,1,1,2,3
    fills = list(rpp_fillings(1, 1, 1))
    assert sorted(rpp_total(f) for f in fills) == [0, 1, 1, 2, 3]
    assert len(list(rpp_fillings(1, 1, 0))) == 1


def test_rpp_transpose_symmetry():
    for (n, m, k) in ((0, 1, 2), (1, 1, 2), (2, 1, 1), (0, 2, 1)):
        fills = list(rpp_fillings(n, m, k))
        keyed = {tuple(sorted(f.items())) for f in fills}
        transposed = {tuple(sorted(((j, i), v) for (i, j), v in f.items())) for f in fills}
        assert keyed == transposed


def test_rpp_weights_alternate_families():
    (zero_fill,) = [f for f in rpp_fillings(1, 1, 1) if rpp_total(f) == 0]
    assert sorted(rpp_factors(zero_fill, 1)) == [("A", 1), ("V", 1), ("V", 1)]
    assert weight_sum([zero_fill], lambda T: rpp_factors(T, 1)) == P.A(1) * P.V(1) ** 2
    header = encode_rpp(zero_fill, 1, 1)
    assert "0 0" in header and "|" in header


def test_rpp_max_total_prunes():
    full = list(rpp_fillings(1, 2, 3))
    small = list(rpp_fillings(1, 2, 3, max_total=2))
    assert {rpp_total(f) for f in small} <= {0, 1, 2}
    assert len(small) == sum(1 for f in full if rpp_total(f) <= 2)


# -- every enumerator against a filter over all candidate words -------------------
#
# The references share no code with the enumerators: itertools.product lists
# every word in the enumerators' letter order, and a plain predicate keeps the
# admissible ones, so an over-eager prune or a change of order shows.

def _motzkin_reference(n, r, s, k):
    for word in itertools.product("UHD", repeat=n):
        hs = list(itertools.accumulate((r,) + word,
                                       lambda h, st: h + {"U": 1, "H": 0, "D": -1}[st]))
        if hs[-1] == s and min(hs) >= 0 and (k is None or max(hs) <= k):
            yield word


def test_motzkin_matches_reference():
    for n in range(0, 7):
        for r in range(0, 4):
            for s in range(0, 4):
                for k in (None, 0, 1, 2, 3):
                    assert list(motzkin_paths(n, r, s, k)) == \
                        list(_motzkin_reference(n, r, s, k)), (n, r, s, k)


def _schroeder_reference(n, k):
    letters = ("U", "H2", "D")
    words = []
    for length in range(0, n + 1):
        for word in itertools.product(letters, repeat=length):
            h, ok = 0, k is None or k >= 0   # every path starts at height 0
            for st in word:
                h += {"U": 1, "H2": 0, "D": -1}[st]
                ok = ok and h >= 0 and (k is None or h <= k)
            if ok and h == 0 and sum(2 if st == "H2" else 1 for st in word) == n:
                words.append(word)
    # depth-first order: lexicographic in the letter order U < H2 < D
    return sorted(words, key=lambda w: [letters.index(st) for st in w])


def test_schroeder_matches_reference():
    for n in range(0, 9):
        for k in (None, -1, 0, 1, 2, 3):
            assert list(schroeder_paths(n, k)) == _schroeder_reference(n, k), (n, k)


def _pv_rule(ell, modified, prev, cur, nxt):
    valley, peak = (1, 2) if modified else (0, ell - 1)
    neighbours = [x for x in (prev, nxt) if x is not None]
    if cur % ell == valley:
        return all(x > cur for x in neighbours)
    if cur % ell == peak:
        return all(x < cur for x in neighbours)
    return True


def _pv_reference(ell, n, k, modified=False, r=None, s=None):
    boundary = not (r is None and s is None)
    r0, s0 = (0 if r is None else r), (0 if s is None else s)
    for seq in itertools.product(range(k + 1), repeat=n):
        padded = (r0,) + seq + (s0,)
        inner = range(1, n + 1) if not boundary else range(0, n + 2)
        if all(_pv_rule(ell, modified,
                        padded[i - 1] if i > 0 else None, padded[i],
                        padded[i + 1] if i < n + 1 else None) for i in inner):
            yield seq


def test_pv_matches_reference():
    for ell, modified in ((2, False), (3, False), (3, True)):
        for n in range(0, 5):
            for k in range(0, 5):
                assert list(pv_sequences(ell, n, k, modified)) == \
                    list(_pv_reference(ell, n, k, modified)), (ell, modified, n, k)
                for r in (0, 1, 2, 3, 5):
                    for s in (0, 1, 2, 4):
                        assert list(pv_sequences(ell, n, k, modified, r=r, s=s)) == \
                            list(_pv_reference(ell, n, k, modified, r, s)), \
                            (ell, modified, n, k, r, s)


def _alt_reference(n, k, down_first=False, endpoints=None):
    for seq in itertools.product(range(1, k + 1), repeat=n):
        rises = all((seq[i - 1] <= seq[i]) if (i % 2 == 1) != down_first
                    else (seq[i - 1] >= seq[i]) for i in range(1, n))
        pinned = endpoints is None or (n > 0 and (seq[0], seq[-1]) == endpoints)
        if rises and pinned:
            yield seq


def test_alt_matches_reference():
    for n in range(0, 7):
        for k in range(1, 4):
            for down_first in (False, True):
                assert list(alt_sequences(n, k, down_first)) == \
                    list(_alt_reference(n, k, down_first)), (n, k, down_first)
                for ends in itertools.product(range(1, k + 1), repeat=2):
                    assert list(alt_sequences(n, k, down_first, ends)) == \
                        list(_alt_reference(n, k, down_first, ends)), \
                        (n, k, down_first, ends)


def _rpp_reference(n, m, k, max_total=None):
    cells = staircase_skew_cells(n, m)
    for vals in itertools.product(range(k + 1), repeat=len(cells)):
        f = dict(zip(cells, vals))
        if all(f[(i, j)] >= f.get((i, j - 1), 0) and f[(i, j)] >= f.get((i - 1, j), 0)
               for (i, j) in cells) and (max_total is None or sum(vals) <= max_total):
            yield f


def test_rpp_matches_reference():
    for n, m, k in ((0, 0, 2), (0, 1, 3), (1, 1, 2), (2, 1, 2), (0, 2, 2), (1, 2, 1)):
        for max_total in (None, -1, 0, 2, 5):
            got = list(rpp_fillings(n, m, k, max_total))
            want = list(_rpp_reference(n, m, k, max_total))
            assert got == want and [list(f) for f in got] == [list(f) for f in want], \
                (n, m, k, max_total)


def test_enumerators_are_lazy():
    # a list of all of them would hold more than 10^20 sequences
    assert next(iter(alt_sequences(40, 6))) == (1,) * 40
    assert next(iter(motzkin_paths(60, 0, 0))) == ("U",) * 30 + ("D",) * 30
