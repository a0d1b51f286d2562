"""The lifted Cremona involution on blown-up P^4: basis images, records,
and the records with no contact beyond point and line multiplicities."""

import random

import pytest

from cremona import chow, p4

R = p4.RING

Z5 = (0,) * 5
Z10 = (0,) * 10
Z30 = (0,) * 30


def _rand_divisor(rng, lo=-3, hi=3):
    return p4.P4Divisor(rng.randint(lo, hi),
                        [rng.randint(lo, hi) for _ in range(5)],
                        [rng.randint(lo, hi) for _ in range(10)],
                        [rng.randint(lo, hi) for _ in range(10)])


def _rand_curve(rng, lo=-3, hi=3):
    return p4.P4Curve(rng.randint(lo, hi),
                      [rng.randint(lo, hi) for _ in range(5)],
                      [rng.randint(lo, hi) for _ in range(10)],
                      [rng.randint(lo, hi) for _ in range(10)])


def _rand_surface(rng, lo=-3, hi=3):
    return p4.P4Surface(rng.randint(lo, hi),
                        [rng.randint(lo, hi) for _ in range(5)],
                        [rng.randint(lo, hi) for _ in range(10)],
                        [rng.randint(lo, hi) for _ in range(10)],
                        [rng.randint(lo, hi) for _ in range(10)],
                        [rng.randint(lo, hi) for _ in range(30)])


def test_involution_on_every_basis_element():
    for e in R.basis():
        assert p4.cremona(p4.cremona(R.cls(e))) == R.cls(e), e


def test_cremona_image_of_H():
    terms = [("H", 4)]
    terms += [(("E", (i,)), -3) for i in p4.POINTS]
    terms += [(("E", q), -2) for q in p4.PAIRS]
    terms += [(("E", t), -1) for t in p4.TRIPLES]
    assert p4.cremona(R.cls("H")) == R.make_class(1, terms)


def test_cremona_swaps_complementary_exceptionals():
    assert p4.cremona(R.cls("E01")) == R.cls("E234")
    assert p4.cremona(R.cls("E234")) == R.cls("E01")
    assert p4.cremona(R.cls("E03")) == R.cls("E124")


def test_cremona_image_of_line():
    terms = [("l", 4)] + [(("l", (i,)), -1) for i in p4.POINTS]
    assert p4.cremona(R.cls("l")) == R.make_class(3, terms)


def test_cremona_image_of_plane_classes():
    terms = [("S", 6)]
    terms += [(("S", (i,)), -3) for i in p4.POINTS]
    terms += [(("P", q), -1) for q in p4.PAIRS]
    assert p4.cremona(R.cls("S")) == R.make_class(2, terms)

    terms = [("S", 3)]
    terms += [(("S", (i,)), -2) for i in p4.POINTS if i != 0]
    terms += [(("P", q), -1) for q in p4.PAIRS if 0 not in q]
    assert p4.cremona(R.cls("S0")) == R.make_class(2, terms)


def test_cremona_fixes_point_class():
    assert p4.cremona(R.cls("p")) == R.cls("p")


def test_cremona_is_ring_automorphism_sampled():
    # the exhaustive pass over every pair with grade sum <= 4 runs in the
    # acceptance suite; here a seeded sample keeps the unit tests quick
    rng = random.Random(7)
    elems = list(R.basis())
    pairs = [(a, b) for a in elems for b in elems
             if 0 < a.grade + b.grade <= 4]
    for a, b in rng.sample(pairs, 500):
        lhs = p4.cremona(R.mul(R.cls(a), R.cls(b)))
        rhs = R.mul(p4.cremona(R.cls(a)), p4.cremona(R.cls(b)))
        assert lhs == rhs, (a, b)


def test_normalize_G():
    assert p4.normalize([("G01", 1)]) == R.make_class(
        2, [("P01", 1), ("F01", 1)])


def test_normalize_Lam():
    want = R.make_class(2, [("H012", 2), ("V012,0", -1),
                            ("V012,1", -1), ("V012,2", -1)])
    assert p4.normalize([("Lam012", 1)]) == want


def test_normalize_M():
    want = p4.normalize([("S", 1), ("S0", -1), ("S1", -1), ("S2", -1),
                         ("P01", -1), ("P02", -1), ("P12", -1),
                         ("Lam012", 1)])
    assert p4.normalize([("M012", 1)]) == want


def test_normalize_h():
    want = R.make_class(3, [("l01", 1), ("l", 1), ("l0", -1), ("l1", -1)])
    assert p4.normalize([("h01", 1)]) == want


def test_normalize_e():
    want = R.make_class(3, [("f012", 1), ("l0", 1), ("l01", -1), ("l02", -1)])
    assert p4.normalize([("e012,0", 1)]) == want


def test_normalize_unknown():
    with pytest.raises(chow.UnknownSymbolError):
        p4.normalize([("G012", 1)])


def test_divisor_record_roundtrip():
    rng = random.Random(2)
    for _ in range(20):
        D = _rand_divisor(rng)
        assert p4.divisor_from_class(p4.divisor_class(D)) == D


def test_surface_record_roundtrip():
    rng = random.Random(4)
    for _ in range(20):
        T = _rand_surface(rng)
        assert p4.surface_from_class(p4.surface_class(T)) == T


def test_cremona_divisor_contracts_hyperplane_through_four_points():
    D = p4.P4Divisor(1, (1, 1, 1, 1, 0), Z10, Z10)
    got = p4.cremona_divisor(D)
    assert got.d == 0
    assert p4.cremona_divisor(got) == D


def test_cremona_divisor_quadric_through_five_points():
    D = p4.P4Divisor(2, (1, 1, 1, 1, 1), Z10, Z10)
    got = p4.cremona_divisor(D)
    assert got == p4.P4Divisor(3, (2,) * 5, (1,) * 10, Z10)
    assert got == p4.divisor_from_class(p4.cremona(p4.divisor_class(D)))
    assert p4.cremona_divisor(got) == D


def test_cremona_divisor_zero():
    Z = p4.P4Divisor(0, Z5, Z10, Z10)
    assert p4.cremona_divisor(Z) == Z


def test_cremona_surface_of_plane_class():
    T = p4.P4Surface(1, Z5, Z10, Z10, Z10, Z30)
    got = p4.cremona_surface(T)
    assert got == p4.P4Surface(6, (3,) * 5, (1,) * 10, Z10, Z10, Z30)


def test_cremona_surface_involutive_random():
    rng = random.Random(9)
    for _ in range(100):
        T = _rand_surface(rng)
        assert p4.cremona_surface(p4.cremona_surface(T)) == T


def test_cremona_curve_line_through_two_points_contracts():
    C = p4.P4Curve(1, (1, 1, 0, 0, 0), Z10, Z10)
    assert p4.cremona_curve(C).d == -2


def test_cremona_curve_general_line_to_quartic():
    C = p4.P4Curve(1, Z5, Z10, Z10)
    got = p4.cremona_curve(C)
    assert got == p4.P4Curve(4, (1,) * 5, Z10, Z10)
    assert got == p4.curve_from_class(p4.cremona(p4.curve_class(C)))


def test_cremona_curve_zero():
    Z = p4.P4Curve(0, Z5, Z10, Z10)
    assert p4.cremona_curve(Z) == Z


def test_record_formulas_agree_with_class_map_sampled_box():
    rng = random.Random(31)
    for _ in range(400):
        D = _rand_divisor(rng, -2, 2)
        assert p4.cremona_divisor(D) == p4.divisor_from_class(
            p4.cremona(p4.divisor_class(D)))
        C = _rand_curve(rng, -2, 2)
        assert p4.cremona_curve(C) == p4.curve_from_class(
            p4.cremona(p4.curve_class(C)))
        T = _rand_surface(rng, -2, 2)
        assert p4.cremona_surface(T) == p4.surface_from_class(
            p4.cremona(p4.surface_class(T)))


# records with no contact beyond the point and line multiplicities: the
# full maps on them are the multiplicity-only five point Cremona

def _divisor(d, m):
    return p4.P4Divisor(d, m, Z10, Z10)


def _curve(d, m):
    return p4.P4Curve(d, m, Z10, Z10)


def _surface(d, m, ml):
    return p4.P4Surface(d, m, ml, Z10, Z10, Z30)


def test_reduced_surface_kills_plane_through_three_points():
    ml = tuple(1 if set(q) <= {0, 1, 2} else 0 for q in p4.PAIRS)
    got = p4.cremona_surface(_surface(1, (1, 1, 1, 0, 0), ml))
    assert got == _surface(0, Z5, tuple(1 if q == (3, 4) else 0
                                        for q in p4.PAIRS))


def test_reduced_surface_fixed_classes():
    # symmetric fixed records satisfy d = 3m - 2n
    for rec in ((7, (3,) * 5, (1,) * 10), (6, (2,) * 5, Z10)):
        assert p4.cremona_surface(_surface(*rec)) == _surface(*rec)


def test_reduced_surface_zero():
    assert p4.cremona_surface(_surface(0, Z5, Z10)) == _surface(0, Z5, Z10)


def test_reduced_curve_examples():
    assert p4.cremona_curve(_curve(1, Z5)) == _curve(4, (1,) * 5)
    assert p4.cremona_curve(_curve(4, (1,) * 5)) == _curve(1, Z5)
    assert p4.cremona_curve(_curve(1, (1, 1, 0, 0, 0))).d == -2


def test_reduced_divisor_examples():
    # hyperplane through four of the five points contracts
    got = p4.cremona_divisor(_divisor(1, (1, 1, 1, 1, 0)))
    assert (got.d, got.m) == (0, (0, 0, 0, 0, -1))
    got = p4.cremona_divisor(_divisor(2, (1,) * 5))
    assert (got.d, got.m) == (3, (2,) * 5)
    assert p4.cremona_divisor(_divisor(0, Z5)) == _divisor(0, Z5)


def test_reduced_maps_involutive():
    # the span of S, S_i, P_ij is closed, and so is the span of l, l_i:
    # their records keep zero contact; a divisor picks up E_ij and E_ijk
    # multiplicities, which the second application clears again
    rng = random.Random(19)
    for _ in range(100):
        d = rng.randint(-3, 3)
        m = tuple(rng.randint(-3, 3) for _ in range(5))
        ml = tuple(rng.randint(-3, 3) for _ in range(10))
        D = _divisor(d, m)
        assert p4.cremona_divisor(p4.cremona_divisor(D)) == D
        C = p4.cremona_curve(_curve(d, m))
        assert C.ml == C.mp == Z10
        assert p4.cremona_curve(C) == _curve(d, m)
        T = p4.cremona_surface(_surface(d, m, ml))
        assert T.nl == T.mp == Z10 and T.np == Z30
        assert p4.cremona_surface(T) == _surface(d, m, ml)


def test_pairing_preserved_divisor_curve():
    rng = random.Random(29)
    for _ in range(100):
        D, C = _rand_divisor(rng), _rand_curve(rng)
        before = chow.degree(chow.mul(p4.divisor_class(D), p4.curve_class(C)))
        after = chow.degree(chow.mul(
            p4.divisor_class(p4.cremona_divisor(D)),
            p4.curve_class(p4.cremona_curve(C))))
        assert before == after


def test_pairing_preserved_surface_surface():
    rng = random.Random(37)
    for _ in range(100):
        T, U = _rand_surface(rng), _rand_surface(rng)
        before = chow.degree(chow.mul(p4.surface_class(T), p4.surface_class(U)))
        after = chow.degree(chow.mul(
            p4.surface_class(p4.cremona_surface(T)),
            p4.surface_class(p4.cremona_surface(U))))
        assert before == after


def test_minus_P_reads_off_line_multiplicity():
    # P.P = p and F.P = -p, so pairing a surface against -P_ij reads off
    # ml_ij - nl_ij; on records without extra contact that is the
    # multiplicity along the ij coordinate line
    rng = random.Random(41)
    for _ in range(20):
        T = _rand_surface(rng)
        for a, q in enumerate(p4.PAIRS):
            got = chow.degree(chow.mul(p4.surface_class(T),
                                       R.cls(("P", q), -1)))
            assert got == T.ml[a] - T.nl[a]
        flat = p4.P4Surface(T.d, T.m, T.ml, Z10, T.mp, T.np)
        for a, q in enumerate(p4.PAIRS):
            got = chow.degree(chow.mul(p4.surface_class(flat),
                                       R.cls(("P", q), -1)))
            assert got == flat.ml[a]
