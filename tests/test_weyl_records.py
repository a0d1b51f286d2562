"""Generators of the Weyl action on point/line/quartic multiplicity records:
Cremona moves at five centers, permutations, words, canonical forms."""

import random

import pytest

from cremona import weyl

Z8 = (0,) * 8
Z28 = (0,) * 28


def _rand_surface(rng, s=8):
    return weyl.SurfaceRecord(s, rng.randint(1, 9),
                              [rng.randint(0, 4) for _ in range(s)] + [0] * (8 - s),
                              [rng.randint(0, 4) if k in weyl.quartic_slots(s) else 0
                               for k in range(1, 9)],
                              [rng.randint(0, 4) if set(q) <= set(range(1, s + 1)) else 0
                               for q in weyl.PAIRS8])


def _rand_perm(rng, s=8):
    img = list(range(1, s + 1))
    rng.shuffle(img)
    return weyl.Perm(tuple(img))


def test_point_counts():
    assert weyl.POINT_COUNTS == (6, 7, 8)
    with pytest.raises(ValueError):
        weyl.DivisorRecord(5, 1, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        weyl.CurveRecord(9, 1, (0,) * 9)


def test_quartic_slots():
    assert weyl.quartic_slots(8) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert weyl.quartic_slots(7) == (8,)
    assert weyl.quartic_slots(6) == ()


def test_surface_record_zero_padding_enforced():
    # s=7 records live in the 8-slot storage with slot 8 forced to zero
    with pytest.raises(ValueError):
        weyl.SurfaceRecord(7, 1, (1, 1, 1, 0, 0, 0, 0, 1), Z8, Z28)
    with pytest.raises(ValueError):
        weyl.SurfaceRecord(7, 1, (1, 1, 1, 0, 0, 0, 0, 0),
                           (1, 0, 0, 0, 0, 0, 0, 0), Z28)
    rec = weyl.s1_plane(1, 2, 3, s=7)
    assert rec.s == 7 and rec.m[7] == 0


@pytest.mark.parametrize("s", [6, 7])
def test_surface_record_every_dead_slot_is_refused(s):
    # each slot set to 1 alone: a slot naming a point past s (or, for n,
    # a quartic outside quartic_slots(s)) raises with its own message,
    # every other slot is accepted
    def put(field, pos):
        rec = {"m": list(Z8), "n": list(Z8), "mline": list(Z28)}
        rec[field][pos] = 1
        return weyl.SurfaceRecord(s, 1, rec["m"], rec["n"], rec["mline"])

    expected = [("m", i - 1, f"point {i} does not exist for s={s}")
                for i in range(1, 9) if i > s]
    expected += [("n", k - 1, f"quartic Q_{k} does not exist for s={s}")
                 for k in range(1, 9) if k not in weyl.quartic_slots(s)]
    expected += [("mline", p, f"line L_{i}{j} does not exist for s={s}")
                 for p, (i, j) in enumerate(weyl.PAIRS8) if j > s]
    dead = set()
    for field, pos, msg in expected:
        with pytest.raises(ValueError) as err:
            put(field, pos)
        assert str(err.value) == msg
        dead.add((field, pos))
    for field, size in (("m", 8), ("n", 8), ("mline", 28)):
        for pos in range(size):
            if (field, pos) not in dead:
                assert getattr(put(field, pos), field)[pos] == 1
    # with every dead slot set at once, points fire first, then
    # quartics, then lines in PAIRS8 order
    m = [0] * s + [1] * (8 - s)
    n = [0 if k in weyl.quartic_slots(s) else 1 for k in range(1, 9)]
    mline = [1 if j > s else 0 for _, j in weyl.PAIRS8]
    slots = {"m": m, "n": n, "mline": mline}
    for field, pos, msg in expected:
        with pytest.raises(ValueError) as err:
            weyl.SurfaceRecord(s, 1, m, n, mline)
        assert str(err.value) == msg
        slots[field][pos] = 0
    assert weyl.SurfaceRecord(s, 1, m, n, mline).s == s


def test_line_and_quartic_accessors():
    T = weyl.s6_sextic(6, 7, 8)
    assert T.line(1, 2) == 1
    assert T.line(2, 1) == 1
    assert T.line(6, 7) == 0
    assert T.quartic(6) == 1
    assert T.quartic(1) == 0


@pytest.mark.parametrize("k", [0, -1, 9, 1.0, True, "1", None])
def test_quartic_label_is_checked(k):
    # quartic(0) used to read Q_8 and quartic(-1) Q_7 through negative
    # indexing; a label must be an int in 1..8
    with pytest.raises(ValueError):
        weyl.s15_surface(1).quartic(k)


@pytest.mark.parametrize("i, j", [(1, 2.0), (True, 2), (1, 1), (0, 2),
                                  (1, 9), (-1, 2), (1, "2")])
def test_line_labels_are_checked(i, j):
    with pytest.raises(ValueError):
        weyl.s15_surface(1).line(i, j)


def test_bad_centers():
    D = weyl.DivisorRecord(8, 1, (1, 1, 1, 1, 0, 0, 0, 0))
    with pytest.raises(weyl.BadCentersError):
        weyl.cremona5_divisor(D, (1, 2, 3, 4))
    with pytest.raises(weyl.BadCentersError):
        weyl.cremona5_divisor(D, (1, 2, 3, 4, 4))
    with pytest.raises(weyl.BadCentersError):
        weyl.cremona5_divisor(weyl.DivisorRecord(6, 1, (1,) * 6), (1, 2, 3, 4, 7))


D8 = weyl.DivisorRecord(8, 1, (1, 1, 1, 1, 0, 0, 0, 0))


@pytest.mark.parametrize("error, build", [
    (weyl.BadCentersError, lambda: weyl.Cremona5((1.9, 2, 3, 4, 5))),
    (weyl.BadCentersError, lambda: weyl.cremona5_divisor(D8, (1, 2, 3, 4, 5.0))),
    (ValueError, lambda: weyl.Perm((True, 2, 3, 4, 5, 6))),
    (ValueError, lambda: weyl.line_record(True, 2)),
    (ValueError, lambda: weyl.quartic_record(True)),
    (ValueError, lambda: weyl.hyperplane_record((1, 2, 3, 4.0))),
    (ValueError, lambda: weyl.s1_plane(1.5, 2, 3)),
    (ValueError, lambda: weyl.s3_cubic(1, 8.0)),
    (ValueError, lambda: weyl.s6_sextic(1, 2, 3.0)),
    (ValueError, lambda: weyl.s10_surface(1.0, 2)),
    (ValueError, lambda: weyl.s15_surface(2.7)),
], ids=["Cremona5", "cremona5_divisor", "Perm", "line_record",
        "quartic_record", "hyperplane_record", "s1_plane", "s3_cubic",
        "s6_sextic", "s10_surface", "s15_surface"])
def test_point_labels_must_be_integers(error, build):
    # int() used to truncate these labels (1.9 -> 1, True -> 1)
    with pytest.raises(error):
        build()


def test_cremona5_divisor_hyperplane_cases():
    D = weyl.DivisorRecord(8, 1, (1, 1, 1, 1, 0, 0, 0, 0))
    # all four marked points among the centers: the hyperplane contracts
    assert weyl.cremona5_divisor(D, (1, 2, 3, 4, 5)).d == 0
    # three of them among the centers: fixed record
    assert weyl.cremona5_divisor(D, (1, 2, 3, 5, 6)) == D
    # two of them: the quadric pattern of the hyperplane orbit
    img = weyl.cremona5_divisor(D, (1, 2, 5, 6, 7))
    assert img == weyl.DivisorRecord(8, 2, (2, 2, 1, 1, 1, 1, 1, 0))
    assert weyl.divisor_type(img) == "(2;22111110)"
    assert weyl.cremona5_divisor(img, (1, 2, 5, 6, 7)) == D


def test_cremona5_curve_line_cases():
    five = (1, 2, 3, 4, 5)
    # both endpoints outside the centers: line becomes a normal quartic
    assert weyl.cremona5_curve(weyl.line_record(6, 7), five) == weyl.quartic_record(8)
    # both inside: contracted
    assert weyl.cremona5_curve(weyl.line_record(1, 2), five).d == -2
    # one endpoint inside: fixed
    assert weyl.cremona5_curve(weyl.line_record(1, 6), five) == weyl.line_record(1, 6)


def test_cremona5_surface_plane_cases():
    five = (1, 2, 3, 4, 5)
    # plane through three centers drops to the pure line class at the
    # other two centers (degree 0; kept out of orbits but used by pairing)
    img = weyl.cremona5_surface(weyl.s1_plane(1, 2, 3), five)
    assert img.d == 0 and img.m == Z8 and img.n == Z8
    assert img.line(4, 5) == 1
    assert sum(img.mline) == 1

    assert weyl.cremona5_surface(weyl.s1_plane(6, 7, 8), five) == weyl.s6_sextic(6, 7, 8)
    assert weyl.cremona5_surface(weyl.s10_surface(7, 8), five) == weyl.s15_surface(6)


def test_cremona5_involutive_on_records():
    rng = random.Random(8)
    for _ in range(50):
        T = _rand_surface(rng)
        centers = tuple(sorted(rng.sample(range(1, 9), 5)))
        assert weyl.cremona5_surface(weyl.cremona5_surface(T, centers), centers) == T


def test_equivariance():
    # sigma . cremona5(r, I) = cremona5(sigma . r, sigma(I))
    rng = random.Random(21)
    for _ in range(200):
        T = _rand_surface(rng)
        centers = tuple(sorted(rng.sample(range(1, 9), 5)))
        sigma = _rand_perm(rng)
        lhs = weyl.apply_perm(weyl.cremona5_surface(T, centers), sigma)
        rhs = weyl.cremona5_surface(
            weyl.apply_perm(T, sigma),
            tuple(sorted(sigma.image[i - 1] for i in centers)))
        assert lhs == rhs


def test_apply_word_empty_is_identity():
    T = weyl.s3_cubic(1, 8)
    assert weyl.apply_word(T, ()) == T


def test_apply_word_involution_pair():
    T = weyl.s1_plane(6, 7, 8)
    w = (weyl.Cremona5((1, 2, 3, 4, 5)), weyl.Cremona5((1, 2, 3, 4, 5)))
    assert weyl.apply_word(T, w) == T


def test_apply_word_contraction():
    with pytest.raises(weyl.ContractedError):
        weyl.apply_word(weyl.line_record(1, 2), (weyl.Cremona5((1, 2, 3, 4, 5)),))
    # same word is fine when contraction is allowed through
    img = weyl.apply_word(weyl.line_record(1, 2), (weyl.Cremona5((1, 2, 3, 4, 5)),),
                          allow_contraction=True)
    assert img.d == -2


def test_invert_word():
    rng = random.Random(33)
    for _ in range(50):
        T = _rand_surface(rng)
        word = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                word.append(weyl.Cremona5(tuple(sorted(rng.sample(range(1, 9), 5)))))
            else:
                word.append(_rand_perm(rng))
        word = tuple(word)
        try:
            img = weyl.apply_word(T, word)
        except weyl.ContractedError:
            continue
        assert weyl.apply_word(img, weyl.invert_word(word)) == T


def test_canonical_form_is_orbit_constant_and_minimal():
    rng = random.Random(44)
    for _ in range(40):
        T = _rand_surface(rng)
        canon, via = weyl.canonical_form(T)
        assert weyl.apply_perm(T, via) == canon
        sigma = _rand_perm(rng)
        # the canonical record does not depend on the labeling we start from
        assert weyl.canonical_form(weyl.apply_perm(T, sigma))[0] == canon
        assert weyl.canonical_form(canon)[0] == canon
        # and no sampled relabeling sorts strictly below it
        got = weyl.apply_perm(T, sigma)
        assert (got.m, got.n, got.mline) >= (canon.m, canon.n, canon.mline)


def test_classify_surface_templates():
    assert weyl.classify_surface(weyl.s1_plane(1, 2, 3)) == ("S1", (1, 2, 3))
    assert weyl.classify_surface(weyl.s3_cubic(8, 1)) == ("S3", (8, 1))
    assert weyl.classify_surface(weyl.s6_sextic(6, 7, 8)) == ("S6", (6, 7, 8))
    assert weyl.classify_surface(weyl.s10_surface(7, 8)) == ("S10", (7, 8))
    assert weyl.classify_surface(weyl.s15_surface(1)) == ("S15", (1,))
    zero = weyl.SurfaceRecord(8, 0, Z8, Z8, Z28)
    assert weyl.classify_surface(zero)[0] == "Other"


def test_classify_curve():
    assert weyl.classify_curve(weyl.line_record(2, 5)) == ("line", (2, 5))
    assert weyl.classify_curve(weyl.quartic_record(3)) == ("quartic", (3,))
    assert weyl.classify_curve(weyl.CurveRecord(8, 2, (1,) * 8))[0] == "Other"


def test_divisor_type_string():
    D = weyl.DivisorRecord(8, 10, (7, 6, 6, 6, 6, 6, 6, 6))
    assert weyl.divisor_type(D) == "(10;76666666)"
    # an entry above 9 switches every entry to comma separation
    D = weyl.DivisorRecord(8, 10, (3, 0, 10, 3, 0, 3, 0, 0))
    assert weyl.divisor_type(D) == "(10;10,3,3,3,0,0,0,0)"
    # type string sorts multiplicities, so it is permutation-invariant
    E = weyl.DivisorRecord(8, 10, (6, 6, 6, 7, 6, 6, 6, 6))
    assert weyl.divisor_type(E) == "(10;76666666)"


def test_template_mline_values():
    # every stored plane template takes line multiplicities in {0,1,3}
    planes = [weyl.s1_plane(1, 2, 3), weyl.s3_cubic(1, 8),
              weyl.s6_sextic(1, 2, 3), weyl.s10_surface(1, 2),
              weyl.s15_surface(8)]
    for T in planes:
        assert set(T.mline) <= {0, 1, 3}, T


NOT_A_RECORD = ("x", weyl.Perm((1, 2, 3, 4, 5, 6, 7, 8)))


@pytest.mark.parametrize("call", [
    lambda x: weyl.apply_cremona5(x, (1, 2, 3, 4, 5)),
    weyl.canonical_form,
    weyl.record_tag,
], ids=["apply_cremona5", "canonical_form", "record_tag"])
def test_record_entry_points_refuse_a_non_record(call):
    for x in NOT_A_RECORD:
        with pytest.raises(TypeError, match="not a record"):
            call(x)


def test_apply_generator_refuses_a_non_generator():
    for gen in ((1, 2, 3, 4, 5), "x", None):
        with pytest.raises(TypeError, match="not a generator"):
            weyl.apply_generator(weyl.s1_plane(1, 2, 3), gen)


def test_apply_perm_wants_one_label_per_point():
    with pytest.raises(ValueError, match="permutation of 7 labels"):
        weyl.apply_perm(weyl.s1_plane(1, 2, 3), weyl.Perm(range(1, 8)))


def test_templates_refuse_six_points_where_the_family_needs_more():
    with pytest.raises(ValueError, match="no quartic Q_1 on 6 points"):
        weyl.quartic_record(1, s=6)
    with pytest.raises(ValueError, match="at least seven points"):
        weyl.s3_cubic(1, 2, s=6)


def test_orbit_refuses_a_seed_of_nonpositive_degree():
    for d in (0, -1):
        with pytest.raises(ValueError, match="positive degree"):
            weyl.orbit(weyl.DivisorRecord(8, d, (0,) * 8))
