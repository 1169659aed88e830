"""Brute-force enumerators: frozen counts, weights, bijections, invariants."""

import itertools

import pytest

from negmom import poly as P
from negmom.paths import (
    alt_sequences,
    alt_to_pv,
    count_alt,
    encode_motzkin,
    encode_rpp,
    encode_seq,
    is_pv_sequence,
    motzkin_paths,
    pv_sequences,
    pv_to_alt,
    pwt_motzkin,
    rpp_fillings,
    rpp_total,
    rpp_transpose,
    schroeder_paths,
    staircase_skew_cells,
    wt_motzkin,
    wt_rpp,
    wt_schroeder,
    wt_seq_av,
    wt_seq_v,
)
from negmom.poly import MultiPoly
from negmom.weights import laurent_symbolic, symbolic


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


def test_motzkin_weights():
    spec = symbolic()
    (ud,) = [p for p in motzkin_paths(2, 0, 0, 2) if p == ("U", "D")]
    assert wt_motzkin(ud, spec) == P.lam(1)
    (hh,) = [p for p in motzkin_paths(2, 0, 0, 2) if p == ("H", "H")]
    assert wt_motzkin(hh, spec) == P.b(0) ** 2
    assert wt_motzkin((), spec) == MultiPoly.const(1)


def test_point_weight_relation():
    # wt(pi; b, b^2) = (b0..b_{r-1} / b0..b_s) pwt(pi; b) on small grids
    from negmom.weights import b_squared
    bsq = b_squared()
    for n in range(0, 6):
        for r in range(0, 3):
            for s in range(0, 3):
                for p in motzkin_paths(n, r, s, 3):
                    lhs = wt_motzkin(p, bsq, r)
                    ratio_num = MultiPoly.const(1)
                    for t in range(r):
                        ratio_num = ratio_num * P.b(t)
                    ratio_den = MultiPoly.const(1)
                    for t in range(s + 1):
                        ratio_den = ratio_den * P.b(t)
                    assert lhs * ratio_den == ratio_num * pwt_motzkin(p, r)


def test_schroeder_counts():
    assert len(list(schroeder_paths(2, 3))) == 2  # UD and H2
    five = list(schroeder_paths(4, 1))
    assert len(five) == 5
    assert ("U", "U", "D", "D") not in five
    assert list(schroeder_paths(3, 2)) == []  # odd displacement unreachable


def test_schroeder_weights():
    ls = laurent_symbolic()
    w = wt_schroeder(("U", "H2", "D"), ls.b, ls.a)
    assert w == P.b(1) * P.a(1)


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
    assert wt_seq_v(()) == MultiPoly.const(1)
    assert wt_seq_v((1, 0, 1)) == P.V(1) ** 2 * P.V(0)
    assert wt_seq_av((3, 3, 1, 4, 4)) == P.V(3) * P.A(3) * P.V(1) * P.A(4) * P.V(4)
    with pytest.raises(ValueError):
        wt_seq_av((1, 2))


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
        transposed = {tuple(sorted(rpp_transpose(f).items())) for f in fills}
        assert keyed == transposed


def test_rpp_weights_alternate_families():
    (zero_fill,) = [f for f in rpp_fillings(1, 1, 1) if rpp_total(f) == 0]
    assert wt_rpp(zero_fill, 1) == P.A(1) * P.V(1) ** 2
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
            h, ok = 0, True
            for st in word:
                h += {"U": 1, "H2": 0, "D": -1}[st]
                ok = ok and h >= 0 and (k is None or h <= k)
            if ok and h == 0 and sum(2 if st == "H2" else 1 for st in word) == n:
                words.append(word)
    # depth-first order: lexicographic in the letter order U < H2 < D
    return sorted(words, key=lambda w: [letters.index(st) for st in w])


def test_schroeder_matches_reference():
    for n in range(0, 9):
        for k in (None, -1, 0, 1, 2, 3):   # k = -1: only the empty path
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
