"""Dimension bookkeeping: chi, the k values, wdim, base locus reports."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from cremona import linsys, weyl

from interp_oracle import (bareiss_rank, condition_rows, h0_by_interpolation,
                           integer_rows, monomials, random_point)

F = linsys.FatPointDivisor

D10 = F(10, 4, (4,) + (2,) * 9)


def unit_rows(fn, s=8):
    """Values of a linear functional on H, E_1, ..., E_s."""
    out = [fn(F(s, 1, (0,) * s))]
    for i in range(s):
        m = [0] * s
        m[i] = 1
        out.append(fn(F(s, 0, tuple(m))))
    return out


def test_chi_examples():
    assert linsys.chi(D10) == -10
    assert linsys.chi(F(4, 1, (1, 1, 1, 1))) == 1
    assert linsys.chi(F(3, 0, (0, 0, 0))) == 1
    # C(m+3,4) conditions per point: 1, 5, 15 for m = 1, 2, 3
    assert linsys.chi(F(3, 3, (1, 2, 3))) == 35 - (1 + 5 + 15)


def test_record_validation():
    with pytest.raises(ValueError):
        F(0, 1, ())
    with pytest.raises(ValueError):
        F(3, 1, (1, 1))


def test_k_line_examples():
    assert linsys.k_line(D10, 1, 5) == 2
    assert linsys.k_line(D10, 5, 1) == 2
    assert linsys.k_line(D10, 2, 3) == 0
    assert linsys.k_line(F(8, 1, (1, 1, 0, 0, 0, 0, 0, 0)), 1, 2) == 1
    with pytest.raises(ValueError):
        linsys.k_line(D10, 1, 1)
    with pytest.raises(ValueError):
        linsys.k_line(D10, 0, 2)
    with pytest.raises(ValueError):
        linsys.k_line(F(4, 1, (1, 1, 1, 1)), 1, 5)


def test_k_quartic_examples():
    D = F(8, 4, (2,) * 8)
    assert linsys.k_quartic(D, 8) == -2
    assert linsys.k_quartic_through(D, (1, 2, 3, 4, 5, 6, 7)) == -2
    assert linsys.k_quartic_through(D, (7, 3, 1, 2, 4, 6, 5)) == -2
    # the subset form works on any point count
    assert linsys.k_quartic_through(F(10, 1, (1,) * 10), range(2, 9)) == 3
    assert linsys.k_quartic(F(7, 1, (1,) * 7), 8) == 3
    with pytest.raises(ValueError):
        linsys.k_quartic(D, 9)
    with pytest.raises(ValueError):
        linsys.k_quartic(F(7, 1, (1,) * 7), 1)
    with pytest.raises(ValueError):
        linsys.k_quartic(F(6, 1, (1,) * 6), 1)
    with pytest.raises(ValueError):
        linsys.k_quartic_through(D, (1, 2, 3, 4, 5, 6, 6))


def test_k_curve_matches_named_k():
    rng = random.Random(4)
    for _ in range(40):
        s = rng.choice((6, 7, 8))
        D = F(s, rng.randint(0, 5), tuple(rng.randint(0, 4) for _ in range(s)))
        i, j = rng.sample(range(1, s + 1), 2)
        assert linsys.k_curve(D, weyl.line_record(i, j, s)) == linsys.k_line(D, i, j)
        for k in weyl.quartic_slots(s):
            assert linsys.k_curve(D, weyl.quartic_record(k, s)) == linsys.k_quartic(D, k)
    with pytest.raises(ValueError):
        linsys.k_curve(F(8, 1, (0,) * 8), weyl.line_record(1, 2, s=7))


def test_k_weyl_plane_symbolic_rows():
    # k_weyl_plane is a composition of linear transports with a linear
    # readout, so the values on H, E_1, ..., E_8 pin it completely
    S123 = weyl.s1_plane(1, 2, 3)
    assert unit_rows(lambda D: linsys.k_weyl_plane(D, S123)) == \
        [-2, 1, 1, 1, 0, 0, 0, 0, 0]
    S18 = weyl.s3_cubic(1, 8)
    assert unit_rows(lambda D: linsys.k_weyl_plane(D, S18)) == \
        [-5, 2, 1, 1, 1, 1, 1, 1, 0]


def test_k_weyl_plane_on_actual_planes():
    rng = random.Random(12)
    for _ in range(40):
        s = rng.choice((6, 7, 8))
        D = F(s, rng.randint(0, 6), tuple(rng.randint(0, 4) for _ in range(s)))
        i, j, k = sorted(rng.sample(range(1, s + 1), 3))
        got = linsys.k_weyl_plane(D, weyl.s1_plane(i, j, k, s))
        assert got == D.m[i - 1] + D.m[j - 1] + D.m[k - 1] - 2 * D.d


def test_k_weyl_plane_zero_and_errors():
    Z = F(8, 0, (0,) * 8)
    assert all(linsys.k_weyl_plane(Z, T) == 0 for T in weyl.weyl_planes(8))
    with pytest.raises(ValueError):
        linsys.k_weyl_plane(F(7, 1, (1,) * 7), weyl.s1_plane(1, 2, 3))
    with pytest.raises(ValueError):
        linsys.k_weyl_plane(F(10, 1, (1,) * 10), weyl.s1_plane(1, 2, 3))
    with pytest.raises(weyl.NotAWeylPlaneError):
        linsys.k_weyl_plane(Z, weyl.SurfaceRecord(8, 2, (1,) * 8, (0,) * 8, (0,) * 28))


def test_k_weyl_divisor_rows_and_errors():
    W = weyl.hyperplane_record((1, 2, 3, 4))
    assert unit_rows(lambda D: linsys.k_weyl_divisor(D, W)) == \
        [-3, 1, 1, 1, 1, 0, 0, 0, 0]
    W2 = weyl.hyperplane_record((5, 6, 7, 8))
    assert unit_rows(lambda D: linsys.k_weyl_divisor(D, W2)) == \
        [-3, 0, 0, 0, 0, 1, 1, 1, 1]
    Z = F(8, 0, (0,) * 8)
    assert all(linsys.k_weyl_divisor(Z, W) == 0 for W in weyl.weyl_divisors(8))
    # membership is read off 3d^2 - sum m^2 = -1, 5d - sum m = 1, d >= 1
    # on a DivisorRecord of D's s; every orbit member is accepted in
    # test_k_forms_match_word_transports
    for bad in (weyl.DivisorRecord(8, 1, (0,) * 8),
                weyl.DivisorRecord(8, 0, (-1,) + (0,) * 7),  # E_1: d = 0
                weyl.DivisorRecord(8, 1, (1,) * 5 + (0, 0, -1)),  # linear only
                weyl.DivisorRecord(8, 1, (2,) + (0,) * 7),  # quadric only
                weyl.CurveRecord(8, 1, (1, 1, 1, 1, 0, 0, 0, 0)),
                weyl.hyperplane_record((1, 2, 3, 4), s=7)):
        with pytest.raises(ValueError):
            linsys.k_weyl_divisor(Z, bad)


def test_k_forms_match_word_transports():
    # the k values are read off fixed integer forms; replaying the words
    # they stand for must give the same numbers on every W and T
    rng = random.Random(31)
    for s in weyl.POINT_COUNTS:
        orb = weyl.divisor_orbit(s)
        for _ in range(3):
            D = F(s, rng.randint(0, 9), tuple(rng.randint(-2, 6) for _ in range(s)))
            rec = weyl.DivisorRecord(s, D.d, D.m)
            for W in orb.members:
                back = weyl.apply_word(rec, weyl.invert_word(orb.witnesses[W]),
                                       allow_contraction=True)
                assert linsys.k_weyl_divisor(D, W) == sum(back.m[:4]) - 3 * back.d
            for T in weyl.weyl_planes(s):
                moved = weyl.apply_word(rec, weyl.plane_normalizing_word(T),
                                        allow_contraction=True)
                assert linsys.k_weyl_plane(D, T) == \
                    moved.m[0] + moved.m[1] + moved.m[2] - 2 * moved.d


def test_h1_correction_examples():
    assert linsys.h1_correction(D10) == 9
    assert linsys.h1_correction(F(8, 0, (0,) * 8)) == 0
    assert linsys.h1_correction(F(8, 2, (2, 2, 0, 0, 0, 0, 0, 0))) == 1
    # deep quartics contribute too: k_Q = 5 on every seven point subset
    assert linsys.h1_correction(F(8, 4, (3,) * 8)) == 28 * 1 + 8 * 35


def test_h1_correction_zero_when_k_at_most_one():
    rng = random.Random(6)
    for _ in range(60):
        s = rng.randint(2, 9)
        d = rng.randint(0, 6)
        m = tuple(rng.randint(0, 4) for _ in range(s))
        D = F(s, d, m)
        ks = [linsys.k_line(D, i, j) for i, j in combinations(range(1, s + 1), 2)]
        ks += [linsys.k_quartic_through(D, sub)
               for sub in combinations(range(1, s + 1), 7)]
        if max(ks) <= 1:
            assert linsys.h1_correction(D) == 0


def test_line_quartic_scan_matches_line_orbit():
    # the pair/seven-subset scan against the Weyl line orbit, the way
    # wdim and base_locus_report read the curves before the scan; the
    # BFS members, not the template table, are the reference
    rng = random.Random(41)
    for s in weyl.POINT_COUNTS:
        curves = weyl.line_orbit(s).members
        assert len(curves) == comb(s, 2) + len(weyl.quartic_slots(s))
        for _ in range(40):
            D = F(s, rng.randint(0, 8), tuple(rng.randint(0, 6) for _ in range(s)))
            ks = [(C, linsys.k_curve(D, C)) for C in curves]
            assert linsys.h1_correction(D) == sum(
                comb(2 + k, 4) for _, k in ks if k >= 2)
            lines, quartics, deep = {}, {}, []
            for C, k in ks:
                if k <= 0:
                    continue
                tag, idx = weyl.classify_curve(C)
                if tag == "line":
                    lines[idx] = k
                else:
                    quartics[idx[0]] = k
                if k >= 2:
                    deep.append((tag, idx, k))
            rep = linsys.base_locus_report(D)
            assert rep.lines == lines and rep.quartics == quartics
            assert rep.deep_curves == tuple(sorted(deep))


def test_wdim_examples():
    assert linsys.wdim(D10, lines_only=True) == -1
    assert linsys.wdim(F(8, 1, (1, 1, 1, 1, 0, 0, 0, 0))) == 1
    assert linsys.wdim(F(8, 0, (0,) * 8)) == 1
    assert linsys.wdim(F(7, 4, (2,) * 7)) == 35
    assert linsys.wdim(F(6, 3, (2,) * 6)) == 5
    with pytest.raises(ValueError):
        linsys.wdim(D10)
    with pytest.raises(ValueError):
        linsys.wdim(F(5, 1, (1,) * 5))


def test_wdim_weyl_invariance():
    # wdim is constant along transports that keep the degree nonnegative
    rng = random.Random(9)
    kept = 0
    while kept < 30:
        s = rng.choice((6, 7, 8))
        D = F(s, rng.randint(0, 6), tuple(rng.randint(0, 3) for _ in range(s)))
        word = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                word.append(weyl.Cremona5(tuple(sorted(rng.sample(range(1, s + 1), 5)))))
            else:
                img = list(range(1, s + 1))
                rng.shuffle(img)
                word.append(weyl.Perm(tuple(img)))
        cur, ok = weyl.DivisorRecord(s, D.d, D.m), True
        for g in word:
            cur = weyl.apply_generator(cur, g)
            if cur.d < 0:
                ok = False
                break
        if not ok:
            continue
        kept += 1
        assert linsys.wdim(F(s, cur.d, cur.m)) == linsys.wdim(D)


def test_wdim_corrects_chi():
    # chi itself is not Weyl invariant: one double point on a hyperplane
    # class moves to (2; 3, 1, 1, 1, 1) whose naive count drops to -4,
    # and the four new k = 2 lines restore the corrected dimension
    D = F(8, 1, (2, 0, 0, 0, 0, 0, 0, 0))
    img = weyl.cremona5_divisor(weyl.DivisorRecord(8, D.d, D.m), (1, 2, 3, 4, 5))
    D2 = F(8, img.d, img.m)
    assert (D2.d, D2.m) == (2, (3, 1, 1, 1, 1, 0, 0, 0))
    assert linsys.chi(D) == 0 and linsys.chi(D2) == -4
    assert linsys.wdim(D) == linsys.wdim(D2) == 0


def test_plane_id():
    assert linsys.plane_id(weyl.s1_plane(1, 2, 3)) == "S1(1,2,3)"
    assert linsys.plane_id(weyl.s3_cubic(1, 8)) == "S3(1,8)"
    assert linsys.plane_id(weyl.s15_surface(6)) == "S15(6)"
    with pytest.raises(weyl.NotAWeylPlaneError):
        linsys.plane_id(weyl.SurfaceRecord(8, 2, (1,) * 8, (0,) * 8, (0,) * 28))


def test_report_deep_lines():
    rep = linsys.base_locus_report(F(8, 4, (4, 2, 2, 2, 2, 2, 2, 2)))
    assert rep.lines == {(1, j): 2 for j in range(2, 9)}
    assert rep.quartics == {} and rep.planes == {}
    assert rep.pairwise_conflicts == () and rep.empties_hint is False
    assert rep.deep_curves == tuple(("line", (1, j), 2) for j in range(2, 9))


def test_report_simple_plane():
    rep = linsys.base_locus_report(F(8, 1, (1, 1, 1, 0, 0, 0, 0, 0)))
    assert rep.lines == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    assert rep.planes == {"S1(1,2,3)": 1}
    assert rep.quartics == {} and rep.deep_curves == ()
    assert rep.pairwise_conflicts == () and rep.empties_hint is False


def test_report_clean_quadric():
    rep = linsys.base_locus_report(F(8, 2, (1,) * 8))
    assert not rep.lines and not rep.quartics and not rep.planes
    assert rep.pairwise_conflicts == () and rep.deep_curves == ()
    assert rep.empties_hint is False


def test_report_quartics_and_deep():
    # (1; 1^8) forces every quartic with k = 3 and every plane shows up
    rep = linsys.base_locus_report(F(8, 1, (1,) * 8))
    assert rep.lines == {q: 1 for q in combinations(range(1, 9), 2)}
    assert rep.quartics == {k: 3 for k in range(1, 9)}
    assert len(rep.planes) == 204
    assert set(rep.planes.values()) == {1, 3, 5, 7, 9}
    assert rep.deep_curves == tuple(("quartic", (k,), 3) for k in range(1, 9))
    assert rep.empties_hint is True


def test_report_conflict_hint():
    # six simple points on a degree one class: disjoint Weyl planes pile
    # into the base locus, which no effective class can support
    rep = linsys.base_locus_report(F(8, 1, (1, 1, 1, 1, 1, 1, 0, 0)))
    assert len(rep.planes) == 156
    assert len(rep.pairwise_conflicts) == 2394
    assert ("S1(1,2,3)", "S1(4,5,6)") in rep.pairwise_conflicts
    assert rep.empties_hint is True


def test_report_small_s_direct_scan():
    rep = linsys.base_locus_report(F(4, 1, (1, 1, 1, 1)))
    assert rep.lines == {q: 1 for q in combinations(range(1, 5), 2)}
    assert rep.planes == {"S1(%d,%d,%d)" % t: 1 for t in combinations(range(1, 5), 3)}
    assert rep.quartics == {} and rep.pairwise_conflicts == ()
    assert rep.empties_hint is False


def test_report_past_eight_points():
    # the lines, quartics and deep curves cremona report prints for D10;
    # no Weyl planes are listed past eight points
    rep = linsys.base_locus_report(D10)
    assert rep.lines == {(1, j): 2 for j in range(2, 11)}
    assert rep.quartics == {} and rep.planes == {}
    assert rep.pairwise_conflicts == () and rep.empties_hint is False
    assert rep.deep_curves == tuple(("line", (1, j), 2) for j in range(2, 11))
    assert (rep.chi, rep.h1corr) == (-10, 9)
    with pytest.raises(ValueError, match="more than the scan covers"):
        linsys.base_locus_report(F(40, 1, (1,) * 40))


def test_report_chi_and_h1corr():
    # the report's chi and h1corr are chi and h1_correction, and they add
    # up to the lines-only wdim, at every s the scan covers
    rng = random.Random(8)
    for _ in range(60):
        s = rng.randint(1, 12)
        d = rng.randint(0, 6)
        D = F(s, d, tuple(rng.randint(0, d + 1) for _ in range(s)))
        rep = linsys.base_locus_report(D)
        assert rep.chi == linsys.chi(D)
        assert rep.h1corr == linsys.h1_correction(D)
        assert rep.chi + rep.h1corr == linsys.wdim(D, lines_only=True)


def test_report_trivial_when_mults_at_most_half_degree():
    rng = random.Random(5)
    for _ in range(20):
        s = rng.choice((6, 7, 8))
        d = rng.randint(2, 8)
        m = tuple(rng.randint(0, d // 2) for _ in range(s))
        rep = linsys.base_locus_report(F(s, d, m))
        assert not rep.lines and not rep.quartics and not rep.planes
        assert rep.pairwise_conflicts == () and rep.empties_hint is False


def test_interpolation_smoke():
    # honest interpolation rank: chi where the conditions are
    # independent, the corrected dimension on the special quadrics
    assert h0_by_interpolation(3, (1, 1, 1, 1)) == 31 == linsys.chi(F(4, 3, (1, 1, 1, 1)))
    for mults, dim in (((2, 2), 6), ((2, 2, 2), 3), ((2, 2, 2, 2), 1)):
        D = F(len(mults), 2, mults)
        assert h0_by_interpolation(2, mults) == dim == linsys.wdim(D, lines_only=True)
    assert h0_by_interpolation(2, (2,) * 6) == 0 == linsys.wdim(F(6, 2, (2,) * 6))


def fraction_rank(rows):
    """Reference rank: textbook Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_bareiss_rank_matches_fraction_elimination():
    rng = random.Random(9)

    def rand(r, c, lo=-3, hi=3):
        return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]

    def product(r, k, c):
        # rank at most k
        A, B = rand(r, k), rand(k, c)
        return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)]

    cases = [[], [[0, 0, 0]], [[0, 2, -1]], [[5]], [[0, 1], [0, 2]],
             [[0] * 4 for _ in range(3)]]
    for _ in range(300):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        M = rand(r, c, -1, 1) if rng.random() < 0.3 else rand(r, c)
        if rng.random() < 0.5:
            M = product(r, rng.randint(1, min(r, c)), c)
        if rng.random() < 0.3:
            M.insert(rng.randint(0, r), [0] * c)
        if rng.random() < 0.3:
            j = rng.randint(0, c)
            M = [row[:j] + [0] + row[j:] for row in M]
        cases.append(M)
    cases += [rand(1, 6) for _ in range(10)]          # single rows
    cases += [product(9, 2, 3) for _ in range(10)]     # tall, deficient
    cases += [rand(10, 4) for _ in range(10)]          # tall, full
    deficient = 0
    for M in cases:
        r = fraction_rank(M)
        assert bareiss_rank(M) == r, M
        deficient += bool(M) and r < min(len(M), len(M[0]))
    assert deficient > 50

    # rational rows go through the denominator clearing first
    for _ in range(50):
        M = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(5)]
             for _ in range(rng.randint(1, 6))]
        M.append([2 * x - y for x, y in zip(M[0], M[-1])])
        assert bareiss_rank(integer_rows(M)) == fraction_rank(M)


@pytest.mark.parametrize("d,mults", [(1, (2, 2)), (2, (2, 1, 1)),
                                     (2, (2, 2, 2)), (3, (2, 2, 1)),
                                     (2, (2,) * 6)])
def test_bareiss_rank_on_condition_matrices(d, mults):
    rng = random.Random(f"bareiss:{d}:{mults}")
    mons = monomials(d)
    rows = []
    for mult in mults:
        rows.extend(condition_rows(mons, random_point(rng), mult))
    assert bareiss_rank(integer_rows(rows)) == fraction_rank(rows)
