"""Ring-independent Chow class machinery: construction, products, degree."""

import random
import re
from itertools import product

import pytest

from cremona import chow, p3, p4

X3 = p3.RING
X4 = p4.RING


def test_make_class_singleton():
    x = X3.make_class(1, [("H", 1)])
    assert x.terms() == ((X3.element("H"), 1),)
    assert not x.is_zero()


def test_make_class_cancellation():
    x = X4.make_class(2, [("S", 1), ("S", -1)])
    assert x.is_zero()
    assert x.terms() == ()


def test_make_class_merges_repeats():
    x = X3.make_class(1, [("E0", 2), ("E0", 3)])
    assert x.coeff(X3.element("E", (0,))) == 5


def test_make_class_rejects_derived_symbol():
    # g_01 is a derived symbol of the P^3 ring, not a stored basis cycle
    with pytest.raises(chow.UnknownBasisError):
        X3.make_class(2, [("g01", 1)])
    with pytest.raises(chow.UnknownBasisError):
        X4.make_class(2, [("G01", 1)])


def test_make_class_rejects_mixed_grade():
    with pytest.raises(chow.MixedGradeError):
        X3.make_class(1, [("H", 1), ("l", 1)])


def test_basis_ranks():
    assert len(list(X3.basis(1))) == 11
    assert len(list(X3.basis())) == 24
    assert len(list(X4.basis(1))) == 26
    assert len(list(X4.basis(2))) == 66
    assert len(list(X4.basis(3))) == 26
    assert len(list(X4.basis())) == 120


def test_parse_name_roundtrip():
    for elem in X4.basis():
        kind, idx, sub = chow.parse_name(elem.name)
        assert X4.element(kind, idx, sub) is elem


def test_parse_name_examples():
    assert chow.parse_name("H") == ("H", (), -1)
    assert chow.parse_name("E01") == ("E", (0, 1), -1)
    assert chow.parse_name("V012,1") == ("V", (0, 1, 2), 1)
    assert chow.parse_name("1") == ("one", (), -1)
    for bad in ("V012,+1", "V012, 1", "V012,\u0661", "V012,1_0", "H,-1",
                "V012,"):
        with pytest.raises(chow.UnknownSymbolError, match="V012|H,-1"):
            chow.parse_name(bad)


def test_parse_name_refuses_surrounding_whitespace():
    # the name used to be stripped, so " E1 " read as E1
    for bad in (" E1", "E1 ", " E1 ", "\tH", "V012,1\n", " 1"):
        with pytest.raises(chow.UnknownSymbolError, match=re.escape(repr(bad))):
            chow.parse_name(bad)


def test_add_and_scale():
    x = X3.make_class(1, [("H", 2), ("E0", -1)])
    y = X3.make_class(1, [("E0", 1), ("E1", 4)])
    z = chow.add(x, y)
    assert z.coeff(X3.element("H")) == 2
    assert z.coeff(X3.element("E", (0,))) == 0
    assert z.coeff(X3.element("E", (1,))) == 4
    assert chow.scale(z, -2).coeff(X3.element("E", (1,))) == -8


def test_add_rejects_grade_mismatch():
    with pytest.raises(chow.MixedGradeError):
        chow.add(X3.cls("H"), X3.cls("l"))


def test_mul_hyperplane_square_is_plane():
    assert chow.mul(X4.cls("H"), X4.cls("H")) == X4.cls("S")


def test_mul_disjoint_exceptionals_vanish():
    assert chow.mul(X4.cls("E0"), X4.cls("E1")).is_zero()


def test_mul_p_f_pairing():
    # the two surface classes inside E_01 meet in a single point, sign -1
    assert chow.mul(X4.cls("P01"), X4.cls("F01")) == X4.cls("p", -1)


def test_mul_grade_overflow():
    with pytest.raises(chow.GradeOverflowError):
        chow.mul(X4.cls("p"), X4.cls("H"))


def test_mul_grade_zero_scales():
    two = X4.make_class(0, [("1", 2)])
    assert chow.mul(two, X4.cls("H")) == X4.cls("H", 2)


def test_degree_of_point():
    assert chow.degree(X4.cls("p")) == 1
    assert chow.degree(X3.cls("p")) == 1


def test_degree_of_products():
    HH = chow.mul(X4.cls("H"), X4.cls("H"))
    assert chow.degree(chow.mul(HH, X4.cls("S"))) == 1
    assert chow.degree(chow.mul(X4.cls("l0"), X4.cls("E0"))) == -1


def test_degree_needs_top_grade():
    with pytest.raises(chow.WrongGradeError):
        chow.degree(X4.cls("H"))


def test_mul_commutative_exhaustive():
    for R in (X3, X4):
        elems = list(R.basis())
        for a in elems:
            for b in elems:
                if a.grade + b.grade > R.dim or a > b:
                    continue
                assert R.mul(R.cls(a), R.cls(b)) == R.mul(R.cls(b), R.cls(a))


def test_mul_bilinear():
    rng = random.Random(11)
    for R in (X3, X4):
        g1 = list(R.basis(1))
        for _ in range(40):
            x = R.make_class(1, [(e, rng.randint(-3, 3)) for e in g1])
            y = R.make_class(1, [(e, rng.randint(-3, 3)) for e in g1])
            z = R.make_class(1, [(e, rng.randint(-3, 3)) for e in g1])
            lhs = R.mul(chow.add(x, chow.scale(y, 2)), z)
            rhs = chow.add(R.mul(x, z), chow.scale(R.mul(y, z), 2))
            assert lhs == rhs


def test_mul_associative_x3_exhaustive():
    elems = list(X3.basis())
    for a, b, c in product(elems, repeat=3):
        if a.grade + b.grade + c.grade > 3:
            continue
        left = X3.mul(X3.mul(X3.cls(a), X3.cls(b)), X3.cls(c))
        right = X3.mul(X3.cls(a), X3.mul(X3.cls(b), X3.cls(c)))
        assert left == right, (a, b, c)


def test_mul_associative_x4_sampled():
    rng = random.Random(5)
    elems = list(X4.basis())
    triples = [(a, b, c) for a, b, c in product(elems, repeat=3)
               if 0 < a.grade + b.grade + c.grade <= 4]
    for a, b, c in rng.sample(triples, 4000):
        left = X4.mul(X4.mul(X4.cls(a), X4.cls(b)), X4.cls(c))
        right = X4.mul(X4.cls(a), X4.mul(X4.cls(b), X4.cls(c)))
        assert left == right, (a, b, c)


def test_normalize_idempotent():
    # once a combination is written in the stored basis, normalize fixes it
    x = p4.normalize([("G01", 1), ("M012", 2)])
    again = X4.normalize([(e, c) for e, c in x.terms()])
    assert again == x


def test_normalize_unknown_symbol():
    with pytest.raises(chow.UnknownSymbolError):
        p4.normalize([("Q012", 1)])
    with pytest.raises(chow.UnknownSymbolError, match="no grade"):
        X4.normalize([])


def test_operator_sugar_matches_functions():
    x = X3.cls("H", 2)
    y = X3.cls("E0")
    assert x + y == chow.add(x, y)
    assert x - y == chow.add(x, chow.scale(y, -1))
    assert 3 * x == chow.scale(x, 3)
    assert x * y == chow.mul(x, y)
    assert -y == chow.scale(y, -1)


def test_coefficient_overflow_guard():
    big = X3.cls("H", 2**62)
    with pytest.raises(chow.CoefficientOverflowError):
        chow.scale(big, 4)


def test_class_repr():
    assert repr(X4.zero(2)) == "0[2]"
    assert repr(X4.cls("H")) == "H"
    assert repr(-X4.cls("H")) == "-H"
    x = X4.make_class(1, [("E0", -1), ("E01", 2), ("H", 1)])
    assert repr(x) == "-E0 +2*E01 +H"


def test_basis_element_refuses_bad_indices():
    with pytest.raises(ValueError, match="strictly increasing"):
        chow.BasisElement("X4", 1, "E", (1, 0))
    with pytest.raises(ValueError, match="sub-index 3 not in"):
        chow.BasisElement("X4", 2, "V", (0, 1), 3)


def test_classes_of_two_rings_do_not_mix():
    h3, h4 = X3.cls("H"), X4.cls("H")
    for mul in (chow.mul, X4.mul):
        with pytest.raises(chow.MixedGradeError, match="different rings"):
            mul(h3, h4)
    with pytest.raises(chow.MixedGradeError, match="different ring"):
        X4.degree(X3.cls(X3.point))
