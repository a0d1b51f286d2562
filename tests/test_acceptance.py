"""Acceptance gate: the ten headline checks, one test per criterion.

Each test prints a CRITERION line; run with -s to see them live:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from collections import Counter
from math import factorial

import pytest

from cremona import linsys, p3, p4, weyl

from interp_oracle import h0_by_interpolation


def criterion(n, desc):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"\nCRITERION {n}: FAIL - {desc}")
                raise
            print(f"\nCRITERION {n}: PASS - {desc}")
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return wrap


@criterion(1, "cremona is an involutive ring automorphism on X3 and X4")
def test_criterion_01():
    """Involution on all 144 basis classes, homomorphism on all basis
    pairs with grade sum at most the dimension, exhaustively."""
    t0 = time.time()
    for ring, cre in ((p3.RING, p3.cremona), (p4.RING, p4.cremona)):
        elems = list(ring.basis())
        assert len(elems) == (24 if ring.dim == 3 else 120)
        for e in elems:
            x = ring.cls(e)
            assert cre(cre(x)) == x
        images = {e: cre(ring.cls(e)) for e in elems}
        for a, b in itertools.product(elems, repeat=2):
            if a.grade + b.grade > ring.dim:
                continue
            assert cre(ring.cls(a) * ring.cls(b)) == images[a] * images[b]
    assert time.time() - t0 < 10


@criterion(2, "eight point orbits: 36 lines+quartics, 204 planes, templates present")
def test_criterion_02():
    lines = weyl.line_orbit(8)
    assert len(lines.members) == 36
    assert lines.type_census == {"line": 28, "quartic": 8}
    planes = weyl.plane_orbit(8)
    assert len(planes.members) == 204
    assert planes.type_census == {"S1": 56, "S3": 56, "S6": 56,
                                  "S10": 28, "S15": 8}
    members = set(planes.members)
    for T in (weyl.s1_plane(1, 2, 3), weyl.s3_cubic(8, 1),
              weyl.s6_sextic(6, 7, 8), weyl.s10_surface(7, 8),
              weyl.s15_surface(1)):
        assert T in members


@criterion(3, "seven point orbits: 22 lines, 42 planes, 57 hyperplane classes")
def test_criterion_03():
    lines = weyl.line_orbit(7)
    assert len(lines.members) == 22
    assert lines.type_census == {"line": 21, "quartic": 1}
    planes = weyl.plane_orbit(7)
    assert len(planes.members) == 42
    assert planes.type_census == {"S1": 35, "S3": 7}
    divs = weyl.divisor_orbit(7)
    assert len(divs.members) == 57
    assert divs.type_census == {"(1;1111000)": 35, "(2;2211111)": 21,
                                "(3;2222222)": 1}


@criterion(4, "the eight point hyperplane orbit has exactly the 14 known types")
def test_criterion_04():
    types = (
        "(1;11110000)", "(2;22111110)", "(3;22222220)", "(3;32222111)",
        "(4;33332221)", "(4;43222222)", "(5;44333322)", "(6;44444432)",
        "(6;54443333)", "(7;55544443)", "(7;64444444)", "(8;65555544)",
        "(9;66665555)", "(10;76666666)",
    )
    orb = weyl.divisor_orbit(8)
    assert sorted(orb.type_census) == sorted(types)
    # each type fills its full relabeling class, so counts are multinomial
    for tag in types:
        digits = Counter(tag.split(";")[1].rstrip(")"))
        expected = factorial(8)
        for c in digits.values():
            expected //= factorial(c)
        assert orb.type_census[tag] == expected
    assert len(orb.members) == 2152
    assert sum(orb.type_census.values()) == 2152


@criterion(5, "all 204 x 204 plane pairings lie in {0, 1, 3}, pinned values hold")
def test_criterion_05():
    t0 = time.time()
    planes = weyl.weyl_planes(8)
    values = Counter()
    for R in planes:
        for T in planes:
            values[weyl.weyl_plane_pairing(R, T)] += 1
    assert values == Counter({0: 31836, 1: 9612, 3: 168})
    S123 = weyl.s1_plane(1, 2, 3)
    assert weyl.weyl_plane_pairing(S123, weyl.s1_plane(4, 5, 6)) == 1
    assert weyl.weyl_plane_pairing(S123, weyl.s1_plane(1, 4, 5)) == 0
    assert weyl.weyl_plane_pairing(S123, weyl.s6_sextic(1, 2, 3)) == 3
    assert weyl.weyl_plane_pairing(weyl.s3_cubic(1, 8), weyl.s3_cubic(8, 1)) == 3
    assert time.time() - t0 < 30


@criterion(6, "normalizing words exist exactly for plane pairs with pairing below 3")
def test_criterion_06():
    planes = weyl.weyl_planes(8)
    S123 = weyl.s1_plane(1, 2, 3)
    rng = random.Random(2024)
    found = 0
    while found < 100:
        R, T = rng.choice(planes), rng.choice(planes)
        if R == T:
            continue
        value = weyl.weyl_plane_pairing(R, T)
        if value == 3:
            continue
        word = weyl.find_normalizing_word(R, T)
        assert weyl.apply_word(R, word) == S123
        # T may pass through contracted intermediates along R's word
        img = weyl.apply_word(T, word, allow_contraction=True)
        assert weyl.classify_surface(img)[0] == "S1"
        assert weyl.weyl_plane_pairing(S123, img) == value
        found += 1
    # the pairing-3 pairs are S1/S6 over a common triple and S3 swaps
    threes = []
    for tri in itertools.combinations(range(1, 9), 3):
        threes.append((weyl.s1_plane(*tri), weyl.s6_sextic(*tri)))
        threes.append((weyl.s6_sextic(*tri), weyl.s1_plane(*tri)))
    for i, j in itertools.permutations(range(1, 9), 2):
        threes.append((weyl.s3_cubic(i, j), weyl.s3_cubic(j, i)))
    assert len(threes) == 168
    for R, T in threes:
        assert weyl.weyl_plane_pairing(R, T) == 3
        with pytest.raises(weyl.NoNormalizingWordError):
            weyl.find_normalizing_word(R, T)


@criterion(7, "ten point example: chi=-10, h1 correction 9, lines-only wdim -1")
def test_criterion_07():
    D = linsys.FatPointDivisor(10, 4, (4,) + (2,) * 9)
    assert linsys.chi(D) == -10
    assert linsys.h1_correction(D) == 9
    assert linsys.wdim(D, lines_only=True) == -1


@criterion(8, "k_weyl_plane transports reproduce the symbolic rows")
def test_criterion_08():
    F = linsys.FatPointDivisor

    def row(T):
        vals = [linsys.k_weyl_plane(F(8, 1, (0,) * 8), T)]
        for i in range(8):
            m = [0] * 8
            m[i] = 1
            vals.append(linsys.k_weyl_plane(F(8, 0, tuple(m)), T))
        return vals

    # m_1 + m_2 + m_3 - 2d on the plane, 2m_1 + m_2 + ... + m_7 - 5d on
    # the cubic; linearity makes the basis rows a complete check
    assert row(weyl.s1_plane(1, 2, 3)) == [-2, 1, 1, 1, 0, 0, 0, 0, 0]
    assert row(weyl.s3_cubic(1, 8)) == [-5, 2, 1, 1, 1, 1, 1, 1, 0]


@criterion(9, "chi agrees with honest interpolation except on flagged cases")
def test_criterion_09():
    t0 = time.time()
    F = linsys.FatPointDivisor
    checked = special = 0
    for d in range(1, 5):
        for s in range(1, 7):
            for m in itertools.combinations_with_replacement((2, 1), s):
                checked += 1
                D = F(s, d, m)
                h0 = h0_by_interpolation(d, m)
                if h0 == linsys.chi(D):
                    continue
                # any discrepancy must come with a positive-k Weyl cycle
                special += 1
                rep = linsys.base_locus_report(D)
                assert rep.lines or rep.quartics or rep.planes, (d, m, h0)
                assert h0 >= max(linsys.chi(D), 0)
    assert checked == 108 and special > 0
    assert time.time() - t0 < 60


@criterion(10, "record level five point Cremonas match the P^4 record maps")
def test_criterion_10():
    # on records with no higher strata the lifted involution's (d, m[, ml])
    # part is the five point Cremona of the Weyl records
    rng = random.Random(77)
    centers = (1, 2, 3, 4, 5)
    cpairs = [q for q in weyl.PAIRS8 if max(q) <= 5]
    Z10 = (0,) * 10
    for _ in range(10 ** 4):
        kind = rng.randrange(3)
        d = rng.randint(-2, 2)
        m5 = tuple(rng.randint(-2, 2) for _ in range(5))
        m8 = m5 + (0, 0, 0)
        if kind == 0:
            img = weyl.cremona5_divisor(weyl.DivisorRecord(8, d, m8), centers)
            full = p4.cremona_divisor(p4.P4Divisor(d, m5, Z10, Z10))
            assert (img.d, img.m) == (full.d, full.m + (0, 0, 0))
        elif kind == 1:
            img = weyl.cremona5_curve(weyl.CurveRecord(8, d, m8), centers)
            full = p4.cremona_curve(p4.P4Curve(d, m5, Z10, Z10))
            assert (img.d, img.m) == (full.d, full.m + (0, 0, 0))
            assert full.ml == full.mp == Z10
        else:
            ml10 = tuple(rng.randint(-2, 2) for _ in range(10))
            mline = [0] * 28
            for q, v in zip(cpairs, ml10):
                mline[weyl.PAIR_POS[q]] = v
            rec = weyl.SurfaceRecord(8, d, m8, (0,) * 8, tuple(mline))
            img = weyl.cremona5_surface(rec, centers)
            full = p4.cremona_surface(
                p4.P4Surface(d, m5, ml10, Z10, Z10, (0,) * 30))
            assert (img.d, img.m) == (full.d, full.m + (0, 0, 0))
            assert tuple(img.mline[weyl.PAIR_POS[q]] for q in cpairs) == full.ml
            assert img.n == (0,) * 8
            assert full.nl == full.mp == Z10 and full.np == (0,) * 30
            assert all(v == 0 for q, v in zip(weyl.PAIRS8, img.mline)
                       if max(q) > 5)
